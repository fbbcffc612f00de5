let seq_bits = 46
let max_epoch = (1 lsl 16) - 1
let max_seq = (1 lsl seq_bits) - 1

let pack ~epoch ~seq =
  if epoch < 0 || epoch > max_epoch then invalid_arg "Version.pack: epoch out of range";
  if seq < 0 || seq > max_seq then invalid_arg "Version.pack: seq out of range";
  (epoch lsl seq_bits) lor seq

let epoch v = v lsr seq_bits
let seq v = v land max_seq
