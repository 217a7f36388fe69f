#include "obs/selfprof.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace amrio::obs {

void SelfProfiler::count(const std::string& name, std::uint64_t v) {
  std::lock_guard<std::mutex> lock(mu_);
  snap_.counters[name] += v;
}

void SelfProfiler::gauge_max(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  double& g = snap_.gauges[name];
  g = std::max(g, v);
}

void SelfProfiler::phase_add(const std::string& name, double wall_s) {
  std::lock_guard<std::mutex> lock(mu_);
  SelfProfSnapshot::Phase& p = snap_.phases[name];
  p.wall_s += wall_s;
  ++p.count;
}

SelfProfSnapshot SelfProfiler::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snap_;
}

void write_selfprof_json(std::ostream& os, const SelfProfSnapshot& snap) {
  util::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();

  w.key("counters").begin_object();
  for (const auto& [name, v] : snap.counters) w.key(name).value(v);
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, v] : snap.gauges) w.key(name).value(v);
  w.end_object();

  w.key("phases").begin_object();
  for (const auto& [name, p] : snap.phases) {
    w.key(name).begin_object();
    w.key("wall_s").value(p.wall_s);
    w.key("count").value(p.count);
    w.end_object();
  }
  w.end_object();

  w.end_object();
  os << "\n";
}

void export_selfprof(const std::string& path, const SelfProfSnapshot& snap) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("obs: cannot open " + path);
  write_selfprof_json(out, snap);
}

}  // namespace amrio::obs
