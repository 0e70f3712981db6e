#include "core/trace_io.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace cohesion::core {

namespace {
constexpr const char* kHeader = "cohesion-trace-v1";
}

void write_trace_csv(const Trace& trace, std::ostream& out) {
  out << kHeader << '\n';
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (RobotId r = 0; r < trace.robot_count(); ++r) {
    const auto p = trace.initial_configuration()[r];
    out << "I," << r << ',' << p.x << ',' << p.y << '\n';
  }
  for (const ActivationRecord& rec : trace.records()) {
    const Activation& a = rec.activation;
    out << "A," << a.robot << ',' << a.t_look << ',' << a.t_move_start << ',' << a.t_move_end
        << ',' << a.realized_fraction << ',' << rec.from.x << ',' << rec.from.y << ','
        << rec.planned.x << ',' << rec.planned.y << ',' << rec.realized.x << ',' << rec.realized.y
        << ',' << rec.seen << '\n';
  }
}

void write_trace_csv(const Trace& trace, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("write_trace_csv: cannot open " + path);
  write_trace_csv(trace, f);
}

Trace read_trace_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    throw std::runtime_error("read_trace_csv: missing header");
  }
  std::vector<geom::Vec2> initial;
  std::vector<ActivationRecord> records;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    std::string field;
    auto next = [&]() -> std::string {
      if (!std::getline(ss, field, ',')) {
        throw std::runtime_error("read_trace_csv: truncated line: " + line);
      }
      return field;
    };
    // std::stod accepts "nan" and "inf"; no trace time or coordinate may be
    // either (the validators sort by time).
    auto number = [&]() -> double {
      const double v = std::stod(next());
      if (!std::isfinite(v)) throw std::runtime_error("read_trace_csv: non-finite number: " + line);
      return v;
    };
    const std::string tag = next();
    if (tag == "I") {
      const std::size_t r = std::stoul(next());
      if (r != initial.size()) throw std::runtime_error("read_trace_csv: out-of-order robots");
      const double x = number();
      const double y = number();
      initial.push_back({x, y});
    } else if (tag == "A") {
      ActivationRecord rec;
      rec.activation.robot = std::stoul(next());
      rec.activation.t_look = number();
      rec.activation.t_move_start = number();
      rec.activation.t_move_end = number();
      rec.activation.realized_fraction = number();
      rec.from.x = number();
      rec.from.y = number();
      rec.planned.x = number();
      rec.planned.y = number();
      rec.realized.x = number();
      rec.realized.y = number();
      rec.seen = std::stoul(next());
      records.push_back(rec);
    } else {
      throw std::runtime_error("read_trace_csv: unknown tag " + tag);
    }
  }
  Trace trace(std::move(initial));
  for (const auto& rec : records) {
    if (rec.activation.robot >= trace.robot_count()) {
      throw std::runtime_error("read_trace_csv: record for unknown robot");
    }
    trace.record(rec);
  }
  return trace;
}

Trace read_trace_csv_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("read_trace_csv_file: cannot open " + path);
  return read_trace_csv(f);
}

}  // namespace cohesion::core
