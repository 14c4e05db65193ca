// Span recorder: spans are appended on the driver's thread (every span
// wraps one call from the driver into the library), so no locking.
#include <cstdio>
#include <map>

#include "bench.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t count)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, wall_s(), 0.0, tracer_->open_, count});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.end = wall_s();
  tracer_->open_ = s.parent;
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  Totals t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    t.seconds += s.end - s.start;
    t.self_seconds += s.end - s.start - child[i];
    t.count += s.count;
    t.spans += 1;
  }
  return t;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\n  \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "    {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"count\": %llu}%s\n",
                 i, s.name.c_str(), s.start - t0, s.end - t0, s.parent,
                 static_cast<unsigned long long>(s.count),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::map<std::string, Totals> by_name;
  for (const Span& s : spans_) {
    if (by_name.count(s.name) == 0) by_name[s.name] = totals(s.name);
  }
  std::fprintf(f, "  ],\n  \"layers\": {\n");
  std::size_t k = 0;
  for (const auto& [name, t] : by_name) {
    std::fprintf(f,
                 "    \"%s\": {\"spans\": %zu, \"seconds\": %.9f, "
                 "\"self_seconds\": %.9f, \"count\": %llu}%s\n",
                 name.c_str(), t.spans, t.seconds, t.self_seconds,
                 static_cast<unsigned long long>(t.count),
                 ++k < by_name.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
