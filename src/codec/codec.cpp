#include "codec/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace amrio::codec {

// ----------------------------------------------------------- smoothness

/// Shared fallback smoothness (typical smooth hydro field): what the
/// estimator reports with no samples and what ebl's data-free plan() uses —
/// one constant so the two paths can never drift apart.
constexpr double kDefaultSmoothness = 0.85;

void SmoothnessEstimator::add(std::span<const double> values) {
  if (values.empty()) return;
  const double first = values.front();
  if (!any_) {
    min_ = max_ = first;
    any_ = true;
  }
  for (double v : values) {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  for (std::size_t i = 1; i + 1 < values.size(); ++i) {
    sum_abs_dd_ += std::abs(values[i + 1] - 2.0 * values[i] + values[i - 1]);
    ++count_;
  }
}

double SmoothnessEstimator::value() const {
  if (!any_ || count_ == 0) return kDefaultSmoothness;
  const double range = max_ - min_;
  if (range <= 0.0) return 1.0;  // constant field: perfectly predictable
  const double mean_dd = sum_abs_dd_ / static_cast<double>(count_) / range;
  return std::clamp(1.0 - mean_dd, 0.0, 1.0);
}

double estimate_smoothness(std::span<const double> values) {
  SmoothnessEstimator est;
  est.add(values);
  return est.value();
}

// ------------------------------------------------------------ container

namespace {

constexpr std::size_t kHeaderBytes = 32;
constexpr char kMagic[8] = {'A', 'M', 'R', 'I', 'O', 'C', 'D', 'C'};

void put_u64(std::byte* dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    dst[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

std::uint64_t get_u64(const std::byte* src) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
  return v;
}

/// Write the self-describing container header in place, over the first
/// kHeaderBytes of a blob whose payload already follows it: the payload
/// round-trips byte-exactly while the modeled CompressResult travels
/// alongside it. The one header writer — encode, encode_as and seal use it.
void wrap(std::span<std::byte> blob, const CompressResult& r) {
  AMRIO_EXPECTS(blob.size() >= kHeaderBytes &&
                r.raw_bytes == blob.size() - kHeaderBytes);
  std::memcpy(blob.data(), kMagic, sizeof(kMagic));
  put_u64(blob.data() + 8, r.raw_bytes);
  put_u64(blob.data() + 16, r.out_bytes);
  put_u64(blob.data() + 24,
          static_cast<std::uint64_t>(std::llround(r.cpu_seconds * 1e9)));
}

CompressResult unwrap_header(std::span<const std::byte> blob,
                             const std::string& codec_name) {
  if (blob.size() < kHeaderBytes ||
      std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("codec '" + codec_name +
                             "': blob is not an encoded container");
  CompressResult r;
  r.raw_bytes = get_u64(blob.data() + 8);
  r.out_bytes = get_u64(blob.data() + 16);
  r.cpu_seconds = static_cast<double>(get_u64(blob.data() + 24)) * 1e-9;
  if (r.raw_bytes != blob.size() - kHeaderBytes)
    throw std::runtime_error("codec '" + codec_name +
                             "': container payload size mismatch");
  return r;
}

double cpu_cost(std::uint64_t raw_bytes, double throughput) {
  return throughput > 0.0 ? static_cast<double>(raw_bytes) / throughput : 0.0;
}

/// Deterministic ±`spread` multiplier derived from the raw size — stands in
/// for content variation without breaking plan()'s purity in raw_bytes.
double size_jitter(std::uint64_t raw_bytes, double spread) {
  std::uint64_t z = raw_bytes + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
  return 1.0 + spread * (2.0 * u - 1.0);
}

std::uint64_t modeled_out_bytes(std::uint64_t raw_bytes, double ratio) {
  if (raw_bytes == 0) return 0;
  const double out = static_cast<double>(raw_bytes) / std::max(ratio, 1.0);
  // never below a per-chunk floor (stream headers), never above raw
  const std::uint64_t floor_bytes = std::min<std::uint64_t>(raw_bytes, 64);
  return std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::llround(out)), floor_bytes, raw_bytes);
}

// ------------------------------------------------------------- identity

class IdentityCodec final : public Codec {
 public:
  const std::string& name() const override {
    static const std::string n = "identity";
    return n;
  }
  CompressResult plan(std::uint64_t raw_bytes) const override {
    return CompressResult{raw_bytes, raw_bytes, 0.0};
  }
  std::vector<std::byte> encode(std::span<const std::byte> raw,
                                CompressResult* result) const override {
    if (result != nullptr) *result = plan(raw.size());
    return std::vector<std::byte>(raw.begin(), raw.end());
  }
  std::vector<std::byte> encode_as(std::span<const std::byte> raw,
                                   const CompressResult&) const override {
    return std::vector<std::byte>(raw.begin(), raw.end());
  }
  std::size_t header_bytes() const override { return 0; }
  void seal(std::span<std::byte>, const CompressResult&) const override {}
  std::span<const std::byte> payload(
      std::span<const std::byte> blob) const override {
    return blob;
  }
  CompressResult peek(std::span<const std::byte> blob) const override {
    return plan(blob.size());
  }
};

// ------------------------------------------------------------- lossless

/// Deflate-class model over the writers' fixed-width numeric text. Ratio is
/// log-interpolated between the paper's Eq. (3) part-size anchors: the 80 kB
/// default part compresses ~2.3x, the 1.55 MB Listing-1 part ~4.5x (larger
/// documents expose more redundancy), with a deterministic ±4% size-hashed
/// jitter standing in for content variation.
class LosslessCodec final : public Codec {
 public:
  LosslessCodec(double throughput, double decode_throughput)
      : throughput_(throughput > 0.0 ? throughput : 1.2e9),
        // inflate runs well ahead of deflate: default to ~2.5x the encode
        // side, the deflate-class asymmetry
        decode_throughput_(decode_throughput > 0.0 ? decode_throughput
                                                   : 2.5 * throughput_) {}

  const std::string& name() const override {
    static const std::string n = "lossless";
    return n;
  }

  CompressResult plan(std::uint64_t raw_bytes) const override {
    constexpr double kAnchorLo = 80.0e3;    // Eq. (3) default part size
    constexpr double kAnchorHi = 1.55e6;    // Listing-1 / Table II part size
    constexpr double kRatioLo = 2.3;
    constexpr double kRatioHi = 4.5;
    if (raw_bytes == 0) return CompressResult{0, 0, 0.0};
    const double t = std::clamp(
        (std::log(static_cast<double>(std::max<std::uint64_t>(raw_bytes, 1))) -
         std::log(kAnchorLo)) /
            (std::log(kAnchorHi) - std::log(kAnchorLo)),
        0.0, 1.0);
    const double ratio =
        (kRatioLo + (kRatioHi - kRatioLo) * t) * size_jitter(raw_bytes, 0.04);
    return CompressResult{raw_bytes, modeled_out_bytes(raw_bytes, ratio),
                          cpu_cost(raw_bytes, throughput_)};
  }

  double decode_seconds(std::uint64_t raw_bytes) const override {
    return cpu_cost(raw_bytes, decode_throughput_);
  }

 private:
  double throughput_;
  double decode_throughput_;
};

// ------------------------------------------------------------------ ebl

/// Error-bounded lossy model (AMRIC/SZ-style): a predictor+quantizer stores
/// log2(roughness / error_bound) bits per 64-bit value plus a fixed
/// entropy-coder overhead, so smooth fields and loose bounds compress hard
/// (the 2–10x AMRIC band) while tight bounds on rough data approach
/// incompressibility.
class EblCodec final : public Codec {
 public:
  EblCodec(double error_bound, double throughput, double decode_throughput,
           double smoothness)
      : error_bound_(error_bound),
        throughput_(throughput > 0.0 ? throughput : 3.0e9),
        // SZ-class decompression (Huffman decode + prediction replay) runs
        // roughly twice the compression throughput
        decode_throughput_(decode_throughput > 0.0 ? decode_throughput
                                                   : 2.0 * throughput_),
        smoothness_(smoothness) {}

  const std::string& name() const override {
    static const std::string n = "ebl";
    return n;
  }

  CompressResult plan(std::uint64_t raw_bytes) const override {
    return plan_with(raw_bytes,
                     smoothness_ >= 0.0 ? smoothness_ : kDefaultSmoothness);
  }

  CompressResult plan_with(std::uint64_t raw_bytes,
                           double smoothness) const override {
    const double s = std::clamp(smoothness, 0.0, 1.0);
    const double roughness = std::max(1.0 - s, 1e-6);
    constexpr double kOverheadBits = 1.5;  // entropy-coder + block headers
    const double bits = std::clamp(
        std::log2(roughness / error_bound_) + kOverheadBits, 1.0, 64.0);
    return CompressResult{raw_bytes, modeled_out_bytes(raw_bytes, 64.0 / bits),
                          cpu_cost(raw_bytes, throughput_)};
  }

  CompressResult plan_values(std::span<const double> values) const override {
    const double s = smoothness_ >= 0.0 ? smoothness_
                                        : estimate_smoothness(values);
    return plan_with(values.size_bytes(), s);
  }

  double decode_seconds(std::uint64_t raw_bytes) const override {
    return cpu_cost(raw_bytes, decode_throughput_);
  }

 private:
  double error_bound_;
  double throughput_;
  double decode_throughput_;
  double smoothness_;
};

// ------------------------------------------------------- per-variable ebl

/// AMRIC-style per-variable error bounds: a task document interleaves its
/// variables in equal raw shares (our writers emit every variable for every
/// zone), so the model splits `raw_bytes` into n near-equal shares and plans
/// each under its own bound. Purity in raw_bytes is preserved — the share
/// split is integer arithmetic on the size alone.
class MultiVarEblCodec final : public Codec {
 public:
  MultiVarEblCodec(std::vector<double> bounds, double throughput,
                   double decode_throughput, double smoothness) {
    vars_.reserve(bounds.size());
    for (const double b : bounds)
      vars_.emplace_back(b, throughput, decode_throughput, smoothness);
  }

  const std::string& name() const override {
    static const std::string n = "ebl";
    return n;
  }

  CompressResult plan(std::uint64_t raw_bytes) const override {
    return accumulate(raw_bytes, [](const EblCodec& c, std::uint64_t share) {
      return c.plan(share);
    });
  }

  CompressResult plan_with(std::uint64_t raw_bytes,
                           double smoothness) const override {
    return accumulate(raw_bytes,
                      [smoothness](const EblCodec& c, std::uint64_t share) {
                        return c.plan_with(share, smoothness);
                      });
  }

  CompressResult plan_values(std::span<const double> values) const override {
    // One smoothness estimate for the whole document (variables share the
    // mesh), then per-variable bounds over the shares.
    return plan_with(values.size_bytes(), estimate_smoothness(values));
  }

  double decode_seconds(std::uint64_t raw_bytes) const override {
    double total = 0.0;
    const std::uint64_t n = vars_.size();
    for (std::uint64_t i = 0; i < n; ++i)
      total += vars_[i].decode_seconds(share_bytes(raw_bytes, i, n));
    return total;
  }

 private:
  /// Share i of n: raw·(i+1)/n − raw·i/n — sums exactly to raw_bytes.
  static std::uint64_t share_bytes(std::uint64_t raw, std::uint64_t i,
                                   std::uint64_t n) {
    return raw * (i + 1) / n - raw * i / n;
  }

  template <typename PlanFn>
  CompressResult accumulate(std::uint64_t raw_bytes, PlanFn plan_fn) const {
    CompressResult total{raw_bytes, 0, 0.0};
    const std::uint64_t n = vars_.size();
    for (std::uint64_t i = 0; i < n; ++i) {
      const CompressResult r = plan_fn(vars_[i], share_bytes(raw_bytes, i, n));
      total.out_bytes += r.out_bytes;
      total.cpu_seconds += r.cpu_seconds;
    }
    return total;
  }

  std::vector<EblCodec> vars_;
};

}  // namespace

// -------------------------------------------------- base encode/payload

std::vector<std::byte> Codec::encode(std::span<const std::byte> raw,
                                     CompressResult* result) const {
  const CompressResult r = plan(raw.size());
  if (result != nullptr) *result = r;
  return encode_as(raw, r);
}

std::vector<std::byte> Codec::encode_as(std::span<const std::byte> raw,
                                        const CompressResult& result) const {
  AMRIO_EXPECTS(result.raw_bytes == raw.size());
  std::vector<std::byte> blob;
  blob.reserve(kHeaderBytes + raw.size());
  blob.resize(kHeaderBytes);
  blob.insert(blob.end(), raw.begin(), raw.end());  // payload copied once
  wrap(blob, result);
  return blob;
}

std::size_t Codec::header_bytes() const { return kHeaderBytes; }

void Codec::seal(std::span<std::byte> blob,
                 const CompressResult& result) const {
  wrap(blob, result);
}

std::span<const std::byte> Codec::payload(
    std::span<const std::byte> blob) const {
  (void)unwrap_header(blob, name());
  return blob.subspan(kHeaderBytes);
}

CompressResult Codec::peek(std::span<const std::byte> blob) const {
  return unwrap_header(blob, name());
}

// -------------------------------------------------------------- registry

const std::vector<std::string>& codec_names() {
  static const std::vector<std::string> names = {"identity", "lossless", "ebl"};
  return names;
}

std::vector<double> parse_var_bounds(const std::string& csv) {
  std::vector<double> bounds;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string tok = csv.substr(pos, comma - pos);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end == nullptr || *end != '\0')
      throw std::invalid_argument("codec: malformed per-variable bound '" +
                                  tok + "' in '" + csv + "'");
    if (!(v > 0.0 && v < 1.0))
      throw std::invalid_argument(
          "codec: per-variable error bound must be in (0, 1), got " + tok);
    bounds.push_back(v);
    pos = comma + 1;
  }
  return bounds;
}

std::string format_var_bounds(const std::vector<double>& bounds) {
  std::string out;
  for (const double b : bounds) {
    if (!out.empty()) out += ',';
    out += util::format_g(b, 17);
  }
  return out;
}

void validate_spec(const CodecSpec& spec) {
  const auto& names = codec_names();
  if (std::find(names.begin(), names.end(), spec.name) == names.end()) {
    std::string known;
    for (const auto& n : names) known += (known.empty() ? "" : "|") + n;
    throw std::invalid_argument("codec: unknown codec '" + spec.name +
                                "' (expected " + known + ")");
  }
  if (spec.name == "ebl" &&
      !(spec.error_bound > 0.0 && spec.error_bound < 1.0))
    throw std::invalid_argument(
        "codec: error bound must be in (0, 1), got " +
        std::to_string(spec.error_bound));
  if (!spec.var_error_bounds.empty()) {
    if (spec.name != "ebl")
      throw std::invalid_argument(
          "codec: per-variable error bounds require codec 'ebl', got '" +
          spec.name + "'");
    for (const double b : spec.var_error_bounds)
      if (!(b > 0.0 && b < 1.0))
        throw std::invalid_argument(
            "codec: per-variable error bound must be in (0, 1), got " +
            std::to_string(b));
  }
  if (spec.throughput < 0.0)
    throw std::invalid_argument("codec: throughput must be >= 0 (0 = default)");
  if (spec.decode_throughput < 0.0)
    throw std::invalid_argument(
        "codec: decode throughput must be >= 0 (0 = default)");
  if (spec.smoothness > 1.0)
    throw std::invalid_argument(
        "codec: smoothness must be <= 1 (negative = auto)");
}

std::unique_ptr<Codec> make_codec(const CodecSpec& spec) {
  validate_spec(spec);
  if (spec.name == "identity") return std::make_unique<IdentityCodec>();
  if (spec.name == "lossless")
    return std::make_unique<LosslessCodec>(spec.throughput,
                                           spec.decode_throughput);
  AMRIO_ENSURES(spec.name == "ebl");
  if (!spec.var_error_bounds.empty())
    return std::make_unique<MultiVarEblCodec>(spec.var_error_bounds,
                                              spec.throughput,
                                              spec.decode_throughput,
                                              spec.smoothness);
  return std::make_unique<EblCodec>(spec.error_bound, spec.throughput,
                                    spec.decode_throughput, spec.smoothness);
}

}  // namespace amrio::codec
