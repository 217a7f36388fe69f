#include "campaign/predict.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "codec/codec.hpp"
#include "macsio/interfaces.hpp"
#include "util/assert.hpp"

namespace amrio::campaign {

namespace {

double eval_fit(const model::MultiFit& fit, const std::vector<double>& x) {
  double y = fit.beta.empty() ? 0.0 : fit.beta[0];
  for (std::size_t j = 0; j + 1 < fit.beta.size() && j < x.size(); ++j)
    y += fit.beta[j + 1] * x[j];
  return y;
}

double variance(const std::vector<std::vector<double>>& rows, std::size_t col) {
  double mean = 0.0;
  for (const auto& r : rows) mean += r[col];
  mean /= static_cast<double>(rows.size());
  double var = 0.0;
  for (const auto& r : rows) var += (r[col] - mean) * (r[col] - mean);
  return var / static_cast<double>(rows.size());
}

/// OLS with a degeneracy ladder: both features → the one that varies → the
/// mean. Collinear designs (encoded bytes exactly proportional to ranks —
/// the identity-codec case) are detected up front via the feature
/// correlation, not left to blow up the normal equations.
model::MultiFit robust_fit(const std::vector<std::vector<double>>& rows,
                           const std::vector<double>& y) {
  AMRIO_EXPECTS(!rows.empty() && rows.size() == y.size());
  constexpr double kVarEps = 1e-12;
  const double v0 = variance(rows, 0);
  const double v1 = variance(rows, 1);
  if (rows.size() >= 4 && v0 > kVarEps && v1 > kVarEps) {
    double m0 = 0.0;
    double m1 = 0.0;
    for (const auto& r : rows) {
      m0 += r[0];
      m1 += r[1];
    }
    m0 /= static_cast<double>(rows.size());
    m1 /= static_cast<double>(rows.size());
    double cov = 0.0;
    for (const auto& r : rows) cov += (r[0] - m0) * (r[1] - m1);
    cov /= static_cast<double>(rows.size());
    const double corr2 = cov * cov / (v0 * v1);
    if (corr2 < 0.999) {
      try {
        return model::fit_multilinear(rows, y);
      } catch (const ContractViolation&) {
        // fall through to the single-feature ladder
      }
    }
  }
  for (const std::size_t col : {std::size_t{0}, std::size_t{1}}) {
    if ((col == 0 ? v0 : v1) <= kVarEps || rows.size() < 2) continue;
    std::vector<double> x;
    x.reserve(rows.size());
    for (const auto& r : rows) x.push_back(r[col]);
    try {
      const model::LinearFit lf = model::fit_linear(x, y);
      model::MultiFit fit;
      fit.beta = {lf.intercept, 0.0, 0.0};
      fit.beta[col + 1] = lf.slope;
      fit.r2 = lf.r2;
      fit.rmse = lf.rmse;
      return fit;
    } catch (const ContractViolation&) {
    }
  }
  double mean = 0.0;
  for (const double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  model::MultiFit fit;
  fit.beta = {mean, 0.0, 0.0};
  fit.r2 = 1.0;
  return fit;
}

}  // namespace

std::string PredictService::stratum_key(const CellConfig& cell) {
  const macsio::Params& p = cell.params;
  std::string key = macsio::to_string(p.interface);
  key += '|';
  key += macsio::to_string(p.file_mode);
  key += p.aggregators > 0 ? "|agg" : "|noagg";
  key += p.stage_to_bb ? "|bb" : "|pfs";
  key += '|';
  key += p.codec;
  key += p.restart ? "|restart" : "|norestart";
  key += p.restart_from_bb ? "|rbb" : "|rpfs";
  return key;
}

std::uint64_t PredictService::predicted_cell_bytes(const CellConfig& cell) {
  const macsio::Params& p = cell.params;
  const auto iface = macsio::make_interface(p.interface);
  const auto cdc = codec::make_codec(p.codec_spec());
  const std::int64_t total =
      std::llround(p.avg_num_parts * static_cast<double>(p.nprocs));
  const std::int64_t base = total / p.nprocs;
  const std::int64_t extras = total % p.nprocs;

  std::uint64_t bytes = 0;
  for (int dump = 0; dump < p.num_dumps; ++dump) {
    const macsio::PartSpec spec =
        macsio::make_part_spec(p.part_bytes_at_dump(dump), p.vars_per_part);
    // Ranks [0, extras) own base+1 parts, the rest own base. Document bytes
    // are rank-invariant except for the printed rank id (miftmpl renders it
    // unpadded, so width grows at every power of ten), so split ranges at
    // the decimal-width boundaries and price one representative rank per
    // homogeneous range — O(dumps · log nprocs), never O(nprocs · dumps).
    const auto add_range = [&](int lo, int hi, int nparts) {
      static constexpr int kWidthCuts[] = {10,     100,     1000,   10000,
                                           100000, 1000000, 10000000};
      int s = lo;
      while (s < hi) {
        int e = hi;
        for (const int cut : kWidthCuts)
          if (cut > s && cut < e) e = cut;
        const std::uint64_t doc =
            iface->task_doc_bytes(spec, s, dump, nparts, p.meta_size);
        bytes += cdc->plan(doc).out_bytes *
                 static_cast<std::uint64_t>(e - s);
        s = e;
      }
    };
    add_range(0, static_cast<int>(extras), static_cast<int>(base) + 1);
    add_range(static_cast<int>(extras), p.nprocs, static_cast<int>(base));
  }
  return bytes;
}

PredictService::Stratum PredictService::fit_stratum(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& log_dump,
    const std::vector<double>& log_restart) {
  Stratum s;
  s.n = rows.size();
  s.dump_fit = robust_fit(rows, log_dump);
  // restart observations are the subset of rows with a positive restart
  // time; log_restart carries NaN for the rest
  std::vector<std::vector<double>> rrows;
  std::vector<double> ry;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (std::isnan(log_restart[i])) continue;
    rrows.push_back(rows[i]);
    ry.push_back(log_restart[i]);
  }
  if (!rrows.empty()) {
    s.restart_fit = robust_fit(rrows, ry);
    s.has_restart = true;
  }
  return s;
}

void PredictService::fit(const std::vector<CellConfig>& cells,
                         const std::vector<CellOutcome>& outcomes) {
  AMRIO_EXPECTS(cells.size() == outcomes.size());
  strata_.clear();
  global_ = Stratum{};
  calibration_error_ = 0.0;
  fitted_cells_ = 0;

  struct Group {
    std::vector<std::vector<double>> rows;
    std::vector<double> log_dump;
    std::vector<double> log_restart;
  };
  std::map<std::string, Group> groups;
  Group all;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& r = outcomes[i].result;
    if (r.encoded_bytes == 0 || r.dump_seconds <= 0.0) continue;
    const std::vector<double> x = {
        std::log(static_cast<double>(r.encoded_bytes)),
        std::log(static_cast<double>(cells[i].params.nprocs))};
    const double ld = std::log(r.dump_seconds);
    const double lr = r.restart_seconds > 0.0 ? std::log(r.restart_seconds)
                                              : std::nan("");
    Group& g = groups[stratum_key(cells[i])];
    g.rows.push_back(x);
    g.log_dump.push_back(ld);
    g.log_restart.push_back(lr);
    all.rows.push_back(x);
    all.log_dump.push_back(ld);
    all.log_restart.push_back(lr);
  }
  AMRIO_EXPECTS_MSG(!all.rows.empty(),
                    "PredictService::fit: no fittable cells");

  for (const auto& [key, g] : groups)
    strata_[key] = fit_stratum(g.rows, g.log_dump, g.log_restart);
  global_ = fit_stratum(all.rows, all.log_dump, all.log_restart);
  fitted_cells_ = all.rows.size();

  // in-sample calibration: what the stratum fits (the ones that answer
  // queries) reproduce of their own training cells
  double acc = 0.0;
  for (const auto& [key, g] : groups) {
    const Stratum& s = strata_[key];
    for (std::size_t i = 0; i < g.rows.size(); ++i) {
      const double pred = std::exp(eval_fit(s.dump_fit, g.rows[i]));
      const double actual = std::exp(g.log_dump[i]);
      acc += std::abs(pred - actual) / actual;
    }
  }
  calibration_error_ = acc / static_cast<double>(fitted_cells_);
}

PredictService::Prediction PredictService::predict(
    const CellConfig& cell) const {
  AMRIO_EXPECTS_MSG(fitted_cells_ > 0,
                    "PredictService::predict called before fit()");
  Prediction out;
  out.encoded_bytes = predicted_cell_bytes(cell);
  const macsio::Params& p = cell.params;
  const std::vector<double> x = {
      std::log(static_cast<double>(
          std::max<std::uint64_t>(out.encoded_bytes, 1))),
      std::log(static_cast<double>(p.nprocs))};
  const std::string key = stratum_key(cell);
  const auto it = strata_.find(key);
  out.exact_stratum = it != strata_.end();
  out.stratum = out.exact_stratum ? key : std::string();
  const Stratum& s = out.exact_stratum ? it->second : global_;
  out.dump_seconds = std::exp(eval_fit(s.dump_fit, x));
  if (s.has_restart) out.restart_seconds = std::exp(eval_fit(s.restart_fit, x));
  return out;
}

std::string PredictService::report() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "predict: %zu strata over %zu cells; calibration error "
                "(mean abs rel, in-sample): %.2f%%",
                strata_.size(), fitted_cells_, 100.0 * calibration_error_);
  return buf;
}

}  // namespace amrio::campaign
