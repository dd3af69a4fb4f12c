#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

namespace perfbench {

int SpanRecorder::add(const char* name, double start_us, double end_us,
                      int parent, std::uint64_t group) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_us, end_us, parent, group});
  return static_cast<int>(spans_.size() - 1);
}

int SpanRecorder::open(const char* name, int parent, std::uint64_t group) {
  const double now = us();
  return add(name, now, now, parent, group);
}

void SpanRecorder::close(int id) {
  const double now = us();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = now;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> SpanRecorder::self_ms_by_name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_us, s.end_us});
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    bool open_run = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_us);
      b = std::min(b, s.end_us);
      if (b <= a) continue;
      if (open_run && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open_run) covered += hi - lo;
      lo = a;
      hi = b;
      open_run = true;
    }
    if (open_run) covered += hi - lo;
    self[s.name] += (s.end_us - s.start_us - covered) / 1000.0;
  }
  return self;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  const auto dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"group\":%llu}",
                 i == 0 ? "" : ",", s.name, s.start_us, s.end_us, s.parent,
                 static_cast<unsigned long long>(s.group));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
