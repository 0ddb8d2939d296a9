#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace coe::obs {

void MetricsRegistry::add(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lk(mtx_);
  counters_[name] += delta;
}

void MetricsRegistry::set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(mtx_);
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(mtx_);
  histograms_[name].observe(value);
}

double MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mtx_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mtx_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramStat MetricsRegistry::histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mtx_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramStat{} : it->second;
}

std::map<std::string, double> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> lk(mtx_);
  return counters_;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lk(mtx_);
  Json root = Json::object();
  Json jc = Json::object();
  for (const auto& [k, v] : counters_) jc.set(k, Json::number(v));
  Json jg = Json::object();
  for (const auto& [k, v] : gauges_) jg.set(k, Json::number(v));
  Json jh = Json::object();
  for (const auto& [k, h] : histograms_) {
    Json stat = Json::object();
    stat.set("count", Json::number(static_cast<double>(h.count)));
    stat.set("sum", Json::number(h.sum));
    // Empty series would dump non-finite extremes; normalize to 0.
    stat.set("min", Json::number(h.count ? h.min : 0.0));
    stat.set("max", Json::number(h.count ? h.max : 0.0));
    jh.set(k, std::move(stat));
  }
  root.set("counters", std::move(jc));
  root.set("gauges", std::move(jg));
  root.set("histograms", std::move(jh));
  return root.dump();
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lk(mtx_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace coe::obs
