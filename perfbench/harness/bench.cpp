#include "bench.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << ",\"name\":" << quoted(s.name)
        << ",\"start_s\":" << number(s.start_s)
        << ",\"end_s\":" << number(s.end_s) << "}\n";
  }
  return static_cast<bool>(out);
}

void Report::print() const {
  for (const std::string& n : notes) std::printf("%s\n", n.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += quoted(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) +
            ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb(int pid) {
  std::ifstream in(pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                           : std::string("/proc/self/status"));
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0.0;
}

}  // namespace perfbench
