#include "layers.hpp"

#include <map>

#include "run/json.hpp"

namespace perfbench {

using cohesion::run::Json;

int SpanLog::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Scopes are RAII, so spans close innermost first.
  stack_.pop_back();
}

std::vector<std::pair<std::string, double>> SpanLog::self_times() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += spans_[i].end - spans_[i].start - child_time[i];
  }
  return {by_name.begin(), by_name.end()};
}

std::string SpanLog::to_json(std::string_view run_id) const {
  Json spans = Json::array();
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) {
    Json j = Json::object();
    j.set("name", s.name);
    j.set("start_s", s.start - t0);
    j.set("end_s", s.end - t0);
    j.set("parent", s.parent);
    spans.items().push_back(std::move(j));
  }
  Json self = Json::object();
  for (const auto& [name, seconds] : self_times()) self.set(name, seconds);
  Json doc = Json::object();
  doc.set("run_id", run_id);
  doc.set("spans", std::move(spans));
  doc.set("self_s", std::move(self));
  return doc.dump(1);
}

std::optional<cohesion::core::Activation> TimedScheduler::next(
    const cohesion::core::SimulationView& view) {
  const double t0 = now_s();
  auto a = inner_.next(view);
  timer_.seconds += now_s() - t0;
  ++timer_.calls;
  return a;
}

cohesion::geom::Vec2 TimedAlgorithm::compute(const cohesion::core::Snapshot& snapshot) const {
  const double t0 = now_s();
  const cohesion::geom::Vec2 v = inner_.compute(snapshot);
  timer_.seconds += now_s() - t0;
  ++timer_.calls;
  neighbours_ += snapshot.size();
  return v;
}

void TimedSink::append(const cohesion::core::ActivationRecord& rec) {
  const double t0 = now_s();
  inner_.append(rec);
  timer_.seconds += now_s() - t0;
  ++timer_.calls;
}

void TimedSink::finish() {
  const double t0 = now_s();
  inner_.finish();
  timer_.seconds += now_s() - t0;
}

}  // namespace perfbench
