#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

namespace perfbench {
namespace {

std::uint32_t this_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

/// Open spans of this thread, innermost last.
std::vector<std::int64_t>& open_stack() {
  thread_local std::vector<std::int64_t> stack;
  return stack;
}

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') {
      out += '\\';
    }
    out += *s;
  }
}

} // namespace

double covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                  std::uint64_t lo, std::uint64_t hi) {
  for (auto& [a, b] : iv) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::uint64_t cur_a = 0;
  std::uint64_t cur_b = 0;
  bool have = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) {
      continue;
    }
    if (!have || a > cur_b) {
      if (have) {
        total += static_cast<double>(cur_b - cur_a);
      }
      cur_a = a;
      cur_b = b;
      have = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (have) {
    total += static_cast<double>(cur_b - cur_a);
  }
  return total;
}

std::vector<double> self_times_ns(const std::vector<span_rec>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double dur = static_cast<double>(s.t1 - s.t0);
    out[i] = dur - covered_ns(std::move(kids[i]), s.t0, s.t1);
  }
  return out;
}

std::vector<span_summary> summarize(const std::vector<span_rec>& spans) {
  const std::vector<double> self = self_times_ns(spans);
  std::vector<span_summary> rows;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    auto [it, fresh] = index.try_emplace(s.name, rows.size());
    if (fresh) {
      rows.push_back(span_summary{s.name});
    }
    auto& row = rows[it->second];
    ++row.count;
    row.total_us += static_cast<double>(s.t1 - s.t0) * 1e-3;
    row.self_us += self[i] * 1e-3;
  }
  return rows;
}

std::string chrome_trace_json(const std::vector<span_rec>& spans) {
  std::uint64_t origin = spans.empty() ? 0 : spans.front().t0;
  for (const auto& s : spans) {
    origin = std::min(origin, s.t0);
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out += "{\"name\":\"";
    append_escaped(out, s.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"op\":%llu}}",
                  s.tid, static_cast<double>(s.t0 - origin) * 1e-3,
                  static_cast<double>(s.t1 - s.t0) * 1e-3, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out += buf;
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

std::int64_t tracer::open(const char* name, std::uint64_t op) {
  auto& stack = open_stack();
  const std::int64_t parent = stack.empty() ? -1 : stack.back();
  const std::uint64_t t0 = now_ns();
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(span_rec{name, t0, 0, parent, op, this_tid()});
  }
  stack.push_back(id);
  return id;
}

void tracer::close(std::int64_t id) {
  const std::uint64_t t1 = now_ns();
  auto& stack = open_stack();
  if (!stack.empty() && stack.back() == id) {
    stack.pop_back();
  } else {
    stack.erase(std::remove(stack.begin(), stack.end(), id), stack.end());
  }
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t1;
}

std::vector<span_rec> tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Indices are parent links, so keep every span; one still open reads as
  // zero-length.
  std::vector<span_rec> out = spans_;
  for (auto& s : out) {
    if (s.t1 == 0) {
      s.t1 = s.t0;
    }
  }
  return out;
}

tracer& trace() {
  static tracer t;
  return t;
}

} // namespace perfbench
