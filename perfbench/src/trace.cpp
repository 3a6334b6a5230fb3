#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::uint32_t t_open_span = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  id_ = tracer.next_id();
  parent_ = t_open_span;
  t_open_span = id_;
  start_ns_ = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = now_ns();
  t_open_span = parent_;
  tracer_->push(Span{name_, start_ns_, end, id_, parent_, request_,
                     thread_index()});
}

std::uint32_t Tracer::next_id() {
  std::lock_guard lock(mutex_);
  return ++ids_;
}

void Tracer::push(const Span& s) {
  std::lock_guard lock(mutex_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const auto all = spans();
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t t0 =
      all.empty() ? 0
                  : std::min_element(all.begin(), all.end(),
                                     [](const Span& a, const Span& b) {
                                       return a.start_ns < b.start_ns;
                                     })->start_ns;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
                  "\"parent\": %u, \"request\": %llu}}%s\n",
                  s.name, s.thread, static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                  s.parent, static_cast<unsigned long long>(s.request),
                  i + 1 < all.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
}

std::map<std::uint32_t, double> self_times_s(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  for (const auto& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<std::uint32_t, double> self;
  for (const auto& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent's.
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_a = 0, cur_b = 0;
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
          continue;
        }
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      }
      if (open) covered += cur_b - cur_a;
    }
    self[s.id] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

}  // namespace perfbench
