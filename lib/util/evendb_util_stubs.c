/* The byte kernels of Crc32c and Bigslice.

   CRC-32C runs on the SSE4.2 crc32 instruction where the CPU has it and
   on a portable slicing-by-8 otherwise; [evendb_crc32c_select] picks
   one, once, when Crc32c is initialised. The copies are memcpy.

   The native entry points take and return untagged ints and neither
   allocate nor raise, so they are declared [@@noalloc]: the heap cannot
   move while they read a bytes value. Callers check bounds. Each has a
   bytecode twin, named with the suffix _byte, that untags its
   arguments and calls it. A CRC register crosses the boundary as the
   low 32 bits of an int, without the pre- and post-inversion, which
   the kernels apply. */

#include <stdint.h>
#include <string.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

#define POLY 0x82f63b78u

/* table[k][b]: the register after byte b followed by k zero bytes, so
   eight lookups advance it over one 8-byte word. */
static uint32_t table[8][256];

static uint32_t crc_portable(uint32_t crc, const uint8_t *p, size_t n)
{
  while (n >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    uint32_t lo = crc ^ (uint32_t)w, hi = (uint32_t)(w >> 32);
    crc = table[7][lo & 0xff] ^ table[6][(lo >> 8) & 0xff]
        ^ table[5][(lo >> 16) & 0xff] ^ table[4][lo >> 24]
        ^ table[3][hi & 0xff] ^ table[2][(hi >> 8) & 0xff]
        ^ table[1][(hi >> 16) & 0xff] ^ table[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0)
    crc = table[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_SSE42_PATH 1

__attribute__((target("sse4.2")))
static uint32_t crc_sse42(uint32_t crc, const uint8_t *p, size_t n)
{
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    c = __builtin_ia32_crc32di(c, w);
    p += 8;
    n -= 8;
  }
  while (n-- > 0)
    c = __builtin_ia32_crc32qi((uint32_t)c, *p++);
  return (uint32_t)c;
}
#endif

static uint32_t (*crc_kernel)(uint32_t, const uint8_t *, size_t) = crc_portable;

value evendb_crc32c_select(value unit)
{
  (void)unit;
  for (uint32_t b = 0; b < 256; b++) {
    uint32_t c = b;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? (c >> 1) ^ POLY : c >> 1;
    table[0][b] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int b = 0; b < 256; b++)
      table[k][b] = (table[k - 1][b] >> 8) ^ table[0][table[k - 1][b] & 0xff];
#ifdef HAVE_SSE42_PATH
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2"))
    crc_kernel = crc_sse42;
#endif
  return Val_unit;
}

static intnat crc(intnat init, const uint8_t *p, intnat len,
                  uint32_t (*kernel)(uint32_t, const uint8_t *, size_t))
{
  return (intnat)(kernel((uint32_t)init ^ 0xffffffffu, p, (size_t)len) ^ 0xffffffffu);
}

intnat evendb_crc32c_bytes(intnat init, value b, intnat pos, intnat len)
{
  return crc(init, Bytes_val(b) + pos, len, crc_kernel);
}

value evendb_crc32c_bytes_byte(value init, value b, value pos, value len)
{
  return Val_long(evendb_crc32c_bytes(Long_val(init), b, Long_val(pos), Long_val(len)));
}

intnat evendb_crc32c_bigarray(intnat init, value buf, intnat pos, intnat len)
{
  return crc(init, (const uint8_t *)Caml_ba_data_val(buf) + pos, len, crc_kernel);
}

value evendb_crc32c_bigarray_byte(value init, value buf, value pos, value len)
{
  return Val_long(evendb_crc32c_bigarray(Long_val(init), buf, Long_val(pos), Long_val(len)));
}

intnat evendb_crc32c_portable(intnat init, value b, intnat pos, intnat len)
{
  return crc(init, Bytes_val(b) + pos, len, crc_portable);
}

value evendb_crc32c_portable_byte(value init, value b, value pos, value len)
{
  return Val_long(evendb_crc32c_portable(Long_val(init), b, Long_val(pos), Long_val(len)));
}

value evendb_blit_bytes_to_bigarray(value src, intnat src_off, value dst, intnat dst_off,
                                    intnat len)
{
  memcpy((uint8_t *)Caml_ba_data_val(dst) + dst_off, Bytes_val(src) + src_off, (size_t)len);
  return Val_unit;
}

value evendb_blit_bytes_to_bigarray_byte(value src, value src_off, value dst, value dst_off,
                                         value len)
{
  return evendb_blit_bytes_to_bigarray(src, Long_val(src_off), dst, Long_val(dst_off),
                                       Long_val(len));
}

value evendb_blit_bigarray_to_bytes(value src, intnat src_off, value dst, intnat dst_off,
                                    intnat len)
{
  memcpy(Bytes_val(dst) + dst_off, (const uint8_t *)Caml_ba_data_val(src) + src_off, (size_t)len);
  return Val_unit;
}

value evendb_blit_bigarray_to_bytes_byte(value src, value src_off, value dst, value dst_off,
                                         value len)
{
  return evendb_blit_bigarray_to_bytes(src, Long_val(src_off), dst, Long_val(dst_off),
                                       Long_val(len));
}
