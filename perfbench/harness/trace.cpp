#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::vector<std::uint32_t> open_spans;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t req,
                     std::uint32_t parent)
    : tracer_(&tracer) {
  if (!tracer.enabled()) return;
  span_.name = name;
  span_.req = req;
  span_.id = tracer.next_id_();
  span_.parent = parent != kInheritParent ? parent
                 : open_spans.empty()     ? 0
                                          : open_spans.back();
  span_.tid = thread_index();
  open_spans.push_back(span_.id);
  span_.start = now_s();
}

Tracer::Scope::~Scope() {
  if (span_.id == 0) return;
  span_.end = now_s();
  open_spans.pop_back();
  tracer_->record_(span_);
}

std::uint32_t Tracer::next_id_() {
  const std::lock_guard<std::mutex> lock(mu_);
  return ++last_id_;
}

void Tracer::record_(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : all) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << s.name << "\",\"cat\":\""
       << std::string(s.name).substr(0, std::string(s.name).find('.'))
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << s.start * 1e6 << ",\"dur\":" << s.duration() * 1e6
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"req\":" << s.req << "}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("failed writing trace file " + path);
}

double self_time(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> cover;
  cover.reserve(children.size());
  for (const Span& c : children) {
    const double a = std::max(c.start, parent.start);
    const double b = std::min(c.end, parent.end);
    if (b > a) cover.emplace_back(a, b);
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double run_a = 0.0, run_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : cover) {
    if (open && a <= run_b) {
      run_b = std::max(run_b, b);
      continue;
    }
    if (open) covered += run_b - run_a;
    run_a = a;
    run_b = b;
    open = true;
  }
  if (open) covered += run_b - run_a;
  return parent.duration() - covered;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<Span>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back(s);
  std::vector<double> out;
  out.reserve(spans.size());
  static const std::vector<Span> none;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    out.push_back(self_time(s, it == children.end() ? none : it->second));
  }
  return out;
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name, bool roots_only) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (name == s.name && (!roots_only || s.parent == 0))
      out.push_back(s.duration());
  return out;
}

std::vector<double> child_sums(const std::vector<Span>& spans,
                               const std::string& parent_name,
                               const std::string& child_name) {
  std::unordered_map<std::uint32_t, double> sums;
  std::vector<std::uint32_t> order;
  for (const Span& s : spans)
    if (parent_name == s.name) {
      sums.emplace(s.id, 0.0);
      order.push_back(s.id);
    }
  for (const Span& s : spans) {
    if (child_name != s.name) continue;
    const auto it = sums.find(s.parent);
    if (it != sums.end()) it->second += s.duration();
  }
  std::vector<double> out;
  out.reserve(order.size());
  for (const std::uint32_t id : order) out.push_back(sums[id]);
  return out;
}

}  // namespace perfbench
