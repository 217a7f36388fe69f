#include "codec/stats.hpp"

namespace amrio::codec {

void CodecTotals::add(const CompressResult& r) {
  raw_bytes += r.raw_bytes;
  encoded_bytes += r.out_bytes;
  encode_seconds += r.cpu_seconds;
  ++chunks;
}

void CodecTotals::add_decode(const CompressResult& r, double decode_s) {
  raw_bytes += r.raw_bytes;
  encoded_bytes += r.out_bytes;
  decode_seconds += decode_s;
  ++chunks;
}

double CodecTotals::ratio() const {
  return encoded_bytes > 0 ? static_cast<double>(raw_bytes) /
                                 static_cast<double>(encoded_bytes)
                           : 1.0;
}

void CodecStats::add(int dump, int level, const CompressResult& r) {
  total.add(r);
  by_dump[dump].add(r);
  by_level[level].add(r);
}

void CodecStats::add_decode(int dump, int level, const CompressResult& r,
                            double decode_s) {
  total.add_decode(r, decode_s);
  by_dump[dump].add_decode(r, decode_s);
  by_level[level].add_decode(r, decode_s);
}

}  // namespace amrio::codec
