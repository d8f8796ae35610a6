#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "runtime/metrics.h"

namespace qcbench {

namespace {

/// Open spans of the calling thread, innermost last (tracer, span id).
thread_local std::vector<std::pair<const Tracer*, std::uint64_t>> t_open;

}  // namespace

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, spans[i].start_s);
      hi = std::min(hi, spans[i].end_s);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = std::max(0.0, spans[i].duration() - covered);
  }
  return out;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double Tracer::since_epoch(Clock::time_point t) const {
  return seconds_between(epoch_, t);
}

std::uint32_t Tracer::thread_index() {
  const auto [it, fresh] = tids_.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size() + 1));
  (void)fresh;
  return it->second;
}

void Tracer::commit(SpanRecord rec) {
  std::lock_guard<std::mutex> lock(mutex_);
  rec.tid = thread_index();
  spans_.push_back(std::move(rec));
}

Tracer::Span::Span(Tracer* tracer, std::string name, std::uint64_t op)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    rec_.id = tracer_->next_id_++;
  }
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == tracer_) {
      rec_.parent = it->second;
      break;
    }
  }
  rec_.op = op;
  rec_.name = std::move(name);
  t_open.emplace_back(tracer_, rec_.id);
  rec_.start_s = tracer_->since_epoch(Clock::now());
}

void Tracer::Span::arg(std::string key, double value) {
  if (tracer_ != nullptr) rec_.args.emplace_back(std::move(key), value);
}

void Tracer::Span::end() {
  if (tracer_ == nullptr) return;
  rec_.end_s = tracer_->since_epoch(Clock::now());
  const auto it = std::find(t_open.begin(), t_open.end(),
                            std::make_pair(static_cast<const Tracer*>(tracer_),
                                           rec_.id));
  if (it != t_open.end()) t_open.erase(it);
  tracer_->commit(std::move(rec_));
  tracer_ = nullptr;
}

Tracer::Span::~Span() { end(); }

std::uint64_t Tracer::record(std::string name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::uint64_t op) {
  if (!enabled_) return 0;
  SpanRecord rec;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rec.id = next_id_++;
  }
  rec.parent = parent;
  rec.op = op;
  rec.name = std::move(name);
  rec.start_s = since_epoch(start);
  rec.end_s = since_epoch(end);
  const std::uint64_t id = rec.id;
  commit(std::move(rec));
  return id;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const auto all = spans();
  const auto self = self_times(all);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    out[layer_of(all[i].name)] += self[i];
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& other_data) const {
  using qc::runtime::json_number;
  using qc::runtime::json_string;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const SpanRecord& s : spans()) {
    std::string ev = first ? "\n" : ",\n";
    first = false;
    ev += "{\"name\":" + json_string(s.name) +
          ",\"cat\":" + json_string(layer_of(s.name)) +
          ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.tid) +
          ",\"ts\":" + json_number(s.start_s * 1e6) +
          ",\"dur\":" + json_number(s.duration() * 1e6) +
          ",\"args\":{\"span\":" + std::to_string(s.id) +
          ",\"parent\":" + std::to_string(s.parent) +
          ",\"op\":" + std::to_string(s.op);
    for (const auto& [k, v] : s.args) {
      ev += "," + json_string(k) + ":" + json_number(v);
    }
    ev += "}}";
    std::fputs(ev.c_str(), f);
  }
  std::fputs("\n],\"otherData\":", f);
  std::fputs(other_data.c_str(), f);
  std::fputs("}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace qcbench
