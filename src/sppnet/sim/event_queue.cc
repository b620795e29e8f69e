#include "sppnet/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "sppnet/common/check.h"

namespace sppnet {
namespace {

// Bucket-count bounds: the array only grows while the live event count
// exceeds 32x the bucket count (see the growth-site comment), and the
// cap bounds the resident footprint of the bucket headers at large N.
constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;

// Re-examine the width calibration every this many pops (but never
// more often than once per 4 * size_ pops — a recalibration
// redistributes every pending event, so it must amortize against the
// standing population or large-N runs spend their time re-bucketing);
// a stationary event population never trips the size-based resize
// thresholds, so without this a badly seeded width would persist
// forever.
constexpr std::uint64_t kRecalibratePops = 8192;
// Gap observations required before the mean is trusted for a width.
constexpr std::uint64_t kMinGapSamples = 64;

// Width as a multiple of the mean gap between calendar dequeues. With
// the staged "today" run a day is ordered once (near-linear, see
// StageDay) and served in order, so wide days are cheap while narrow
// days are not: every empty day costs a probe when the walk hunts for
// the next populated one. The gap distribution is skewed — bursts of
// jittered deliveries contribute many near-zero gaps, the Poisson
// clocks the long tail — so a generous multiple of the mean still
// yields short days in absolute terms.
constexpr double kWidthPerGap = 256.0;
constexpr double kMinWidth = 1e-12;
constexpr double kMaxWidth = 1e12;

// Longest sub-day slice StageDay sorts by insertion; longer ones (many
// equal or clamped times in one slice) take std::sort instead.
constexpr std::size_t kInsertionSortMax = 16;

// Functor (not a function pointer) so std::sort / std::lower_bound
// inline the comparison — it runs tens of millions of times per run.
struct EarlierCmp {
  bool operator()(const SimEvent& lhs, const SimEvent& rhs) const {
    if (lhs.time != rhs.time) return lhs.time < rhs.time;
    return lhs.seq < rhs.seq;
  }
};

inline bool EarlierEvent(const SimEvent& lhs, const SimEvent& rhs) {
  return EarlierCmp{}(lhs, rhs);
}

}  // namespace

void EventQueue::Schedule(SimEvent event) {
  SPPNET_CHECK(std::isfinite(event.time) && event.time >= 0.0);
  event.seq = next_seq_++;
  heap_.push(event);
}

void EventQueue::SchedulePreKeyed(const SimEvent& event) {
  SPPNET_CHECK(std::isfinite(event.time) && event.time >= 0.0);
  heap_.push(event);
}

double EventQueue::NextTime() const {
  SPPNET_CHECK(!heap_.empty());
  return heap_.top().time;
}

SimEvent EventQueue::Pop() {
  SPPNET_CHECK(!heap_.empty());
  SimEvent e = heap_.top();
  heap_.pop();
  return e;
}

std::vector<SimEvent> EventQueue::SnapshotEvents() const {
  EventQueue scratch = *this;
  std::vector<SimEvent> events;
  events.reserve(scratch.size());
  while (!scratch.empty()) events.push_back(scratch.Pop());
  return events;
}

void EventQueue::RestorePending(const std::vector<SimEvent>& events,
                                std::uint64_t next_seq) {
  SPPNET_CHECK(heap_.empty());
  for (const SimEvent& event : events) {
    SPPNET_CHECK(std::isfinite(event.time) && event.time >= 0.0);
    SPPNET_CHECK(event.seq < next_seq);
    heap_.push(event);
  }
  next_seq_ = next_seq;
}

CalendarQueue::CalendarQueue()
    : buckets_(kMinBuckets), width_(0.25), inv_width_(1.0 / 0.25) {}

void CalendarQueue::Schedule(SimEvent event) {
  event.seq = next_seq_++;
  Insert(event);
}

void CalendarQueue::ScheduleDelivery(SimEvent event) {
  SPPNET_CHECK(std::isfinite(event.time) && event.time >= 0.0);
  event.seq = next_seq_++;
  if (lane_size_ > 0) {
    const SimEvent& tail =
        lane_[(lane_head_ + lane_size_ - 1) & (lane_.size() - 1)];
    if (Earlier(KeyOf(event), KeyOf(tail))) {
      ++lane_fallbacks_;
      Insert(event);
      return;
    }
  }
  if (lane_size_ == lane_.size()) GrowLane();
  lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = event;
  ++lane_size_;
}

void CalendarQueue::GrowLane() {
  // The ring's capacity follows the peak number of deliveries in
  // flight, which the workload bounds (one latency's worth of sends);
  // it never grows with run length.
  std::vector<SimEvent> grown(std::max<std::size_t>(2 * lane_.size(), 64));
  for (std::size_t i = 0; i < lane_size_; ++i) {
    grown[i] = lane_[(lane_head_ + i) & (lane_.size() - 1)];
  }
  lane_.swap(grown);
  lane_head_ = 0;
}

void CalendarQueue::Insert(const SimEvent& event) {
  SPPNET_CHECK(std::isfinite(event.time) && event.time >= 0.0);
  const std::uint64_t day = DayOf(event.time);
  if (TodayHasEvents() && day == today_day_) {
    // The staged day receives its late arrivals directly, keeping the
    // "no bucket slot carries today_day_" invariant. Sorted insert; in
    // the common case (a flood wave scheduling ascending (time, seq))
    // the position is the end, so this stays O(1) amortized.
    const auto it = std::lower_bound(
        today_.begin() + static_cast<std::ptrdiff_t>(today_pos_),
        today_.end(), event, EarlierCmp{});
    today_.insert(it, event);
    ++size_;
    return;
  }
  auto& bucket = buckets_[day & (buckets_.size() - 1)];
  bucket.push_back(event);
  ++size_;
  if (min_valid_) {
    // A later event (>= cached minimum) cannot rewind anything: its day
    // is >= the cached day, which is where cur_day_ sits. An earlier
    // one becomes the new cached minimum in place. The comparison runs
    // against the cached (time, seq) copy — touching the minimum's
    // bucket here would cost a cache miss per Schedule.
    if (Earlier(KeyOf(event), min_key_)) {
      min_bucket_ = day & (buckets_.size() - 1);
      min_slot_ = bucket.size() - 1;
      min_key_ = KeyOf(event);
      cur_day_ = std::min(cur_day_, day);
    }
  } else {
    cur_day_ = std::min(cur_day_, day);
  }
  if (size_ > 32 * buckets_.size() && buckets_.size() < kMaxBuckets) {
    // Quadrupling (not doubling) halves the number of full
    // redistributions paid on the way up; each one rewrites every
    // pending event. Dozens of events per bucket (not the classic ~1)
    // is deliberate: staged-day serving makes the pop path insensitive
    // to bucket size, while fewer buckets keep the header array small
    // enough to stay cached for Schedule's random-bucket access —
    // measurably faster than a header array that spills to DRAM.
    Resize(std::min(buckets_.size() * 4, kMaxBuckets));
  }
}

bool CalendarQueue::TodayWins() const {
  // Days are monotone in time, so only a bucket-side event scheduled
  // into a day before the staged one (a rewind, which lowers cur_day_)
  // can beat the run; no bucket slot carries today_day_ itself.
  if (cur_day_ >= today_day_ || BucketSideSize() == 0) return true;
  if (!min_valid_) FindMin();
  return Earlier(KeyOf(today_[today_pos_]), min_key_);
}

CalendarQueue::Key CalendarQueue::CalendarFront() const {
  // Peeking never stages: a day staged early would take every later
  // insert into it as a sorted insert, while the buckets take them in
  // O(1) and the day is ordered once when it is popped.
  if (TodayHasEvents() && TodayWins()) return KeyOf(today_[today_pos_]);
  if (!min_valid_) FindMin();
  return min_key_;
}

double CalendarQueue::NextTime() const {
  SPPNET_CHECK(!empty());
  if (size_ == 0) return lane_[lane_head_].time;
  const Key calendar = CalendarFront();
  if (lane_size_ > 0 && Earlier(KeyOf(lane_[lane_head_]), calendar)) {
    return lane_[lane_head_].time;
  }
  return calendar.time;
}

void CalendarQueue::StageDay(std::uint64_t day) {
  auto& bucket = buckets_[day & (buckets_.size() - 1)];
  today_.clear();
  today_pos_ = 0;
  today_day_ = day;
  // Counting pass: key each of the day's events by its slice of the
  // day, one of `slices` equal sub-days (about one per bucket slot),
  // and count the slices. SliceOf is monotone in time, so slice order
  // never contradicts (time, seq) order.
  const std::size_t slices = std::bit_ceil(bucket.size());
  stage_counts_.assign(slices + 1, 0);
  std::size_t staged = 0;
  for (const SimEvent& event : bucket) {
    if (DayOf(event.time) != day) continue;
    ++stage_counts_[SliceOf(event.time, day, slices) + 1];
    ++staged;
  }
  for (std::size_t k = 1; k <= slices; ++k) {
    stage_counts_[k] += stage_counts_[k - 1];
  }
  // Scatter pass: day slots go to their slice's place in the staged
  // run, the rest keeps its bucket. The relative order of survivors
  // changes freely — selection is by (time, seq), never by position.
  today_.resize(staged);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (DayOf(bucket[i].time) == day) {
      today_[stage_counts_[SliceOf(bucket[i].time, day, slices)]++] =
          bucket[i];
    } else {
      bucket[kept++] = bucket[i];
    }
  }
  bucket.resize(kept);
  // A burst of events parked on one day leaves its bucket with a large
  // capacity; on an unbounded run every bucket eventually hosts one
  // and the calendar's footprint grows without bound while the live
  // event count stays flat (bench/sustained_throughput holds RSS flat
  // over 1e8 events). Trim the ratchet back once it overshoots the
  // survivors 8x; the occasional re-growth is a few geometric
  // push_back reallocations, invisible next to the staging passes.
  if (bucket.capacity() > std::max<std::size_t>(8 * kept, 64)) {
    std::vector<SimEvent>(bucket.begin(), bucket.end()).swap(bucket);
  }
  // stage_counts_[k] now ends slice k. With about one event per slice
  // the runs are short, so insertion sort orders each in near-linear
  // time; a long run (a pile of equal or clamped times) gets a
  // comparison sort of that run alone, unless already in order.
  std::size_t begin = 0;
  for (std::size_t k = 0; k < slices; ++k) {
    const std::size_t end = stage_counts_[k];
    SimEvent* const first = today_.data() + begin;
    SimEvent* const stop = today_.data() + end;
    if (end - begin > kInsertionSortMax) {
      if (!std::is_sorted(first, stop, EarlierCmp{})) {
        std::sort(first, stop, EarlierCmp{});
      }
    } else {
      for (SimEvent* it = first + 1; it < stop; ++it) {
        const SimEvent moving = *it;
        SimEvent* hole = it;
        while (hole > first && EarlierEvent(moving, hole[-1])) {
          *hole = hole[-1];
          --hole;
        }
        *hole = moving;
      }
    }
    begin = end;
  }
  min_valid_ = false;
}

SimEvent CalendarQueue::Pop() {
  SPPNET_CHECK(!empty());
  if (lane_size_ > 0 &&
      (size_ == 0 || Earlier(KeyOf(lane_[lane_head_]), CalendarFront()))) {
    const SimEvent e = lane_[lane_head_];
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_size_;
    ++lane_pops_;
    return e;
  }
  return PopCalendar();
}

SimEvent CalendarQueue::PopCalendar() {
  if (!TodayHasEvents()) {
    // The calendar minimum's whole day becomes the staged run.
    if (!min_valid_) FindMin();
    StageDay(DayOf(min_key_.time));
    cur_day_ = today_day_;
  }
  SimEvent e;
  if (TodayWins()) {
    e = today_[today_pos_++];
    if (today_pos_ == today_.size()) {
      today_.clear();
      today_pos_ = 0;
      // No bucket-side event of this day or an earlier one can remain
      // (it would have won every pop until now), so the next walk
      // starts at the following day.
      cur_day_ = std::max(cur_day_, today_day_ + 1);
    }
  } else {
    // Rare rewind: a bucket-side event scheduled into an earlier day
    // than the staged run (TodayWins cached its position). Pop that
    // single slot directly; the staged remainder stays put.
    auto& bucket = buckets_[min_bucket_];
    e = bucket[min_slot_];
    cur_day_ = DayOf(e.time);
    bucket[min_slot_] = bucket.back();  // Swap-erase: order is by
    bucket.pop_back();                  // (time, seq), not position.
    min_valid_ = false;
  }
  --size_;
  ++calendar_pops_;

  if (have_last_pop_) {
    gap_sum_ += e.time - last_pop_time_;
    ++gap_count_;
  }
  last_pop_time_ = e.time;
  have_last_pop_ = true;
  ++pops_since_resize_;

  if (size_ < 2 * buckets_.size() && buckets_.size() > kMinBuckets) {
    Resize(std::max(buckets_.size() / 4, kMinBuckets));
  } else if (pops_since_resize_ >=
                 std::max<std::uint64_t>(kRecalibratePops, 4 * size_) &&
             gap_count_ >= kMinGapSamples) {
    // Same bucket count, recomputed width — only when the calibration
    // has drifted past 8x in either direction.
    const double ideal = std::clamp(
        kWidthPerGap * (gap_sum_ / static_cast<double>(gap_count_)),
        kMinWidth, kMaxWidth);
    // The wide drift band matters: a recalibration redistributes every
    // pending event, and the mean gap of an 8192-pop window swings
    // several-fold between wave-heavy and quiet stretches. Only a
    // genuinely mis-set width (orders of magnitude, e.g. from a seeded
    // default) is worth that price — staged-day serving keeps moderate
    // mis-widths cheap.
    if (ideal > 8.0 * width_ || ideal < width_ / 8.0) {
      Resize(buckets_.size());
    } else {
      pops_since_resize_ = 0;
      gap_sum_ = 0.0;
      gap_count_ = 0;
    }
  }
  return e;
}

void CalendarQueue::FindMin() const {
  // Walk the calendar one day at a time starting at cur_day_; the first
  // day holding any event holds the minimum (events of later days have
  // strictly later times). A bucket is shared by all days congruent
  // modulo the bucket count, hence the per-slot day filter.
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t step = 0; step < buckets_.size(); ++step) {
    ++day_steps_;
    const std::uint64_t day = cur_day_ + step;
    const auto& bucket = buckets_[day & mask];
    std::size_t best = bucket.size();
    slot_visits_ += bucket.size();
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (DayOf(bucket[i].time) != day) continue;
      if (best == bucket.size() || EarlierEvent(bucket[i], bucket[best])) {
        best = i;
      }
    }
    if (best != bucket.size()) {
      min_bucket_ = day & mask;
      min_slot_ = best;
      min_key_ = KeyOf(bucket[best]);
      min_valid_ = true;
      cur_day_ = day;
      return;
    }
  }
  // The next event is more than a whole year ahead (sparse region):
  // direct scan over every slot instead of walking day by day.
  ++global_scans_;
  std::size_t best_bucket = buckets_.size();
  std::size_t best_slot = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    for (std::size_t i = 0; i < buckets_[b].size(); ++i) {
      if (best_bucket == buckets_.size() ||
          EarlierEvent(buckets_[b][i], buckets_[best_bucket][best_slot])) {
        best_bucket = b;
        best_slot = i;
      }
    }
  }
  SPPNET_CHECK(best_bucket != buckets_.size());
  min_bucket_ = best_bucket;
  min_slot_ = best_slot;
  min_key_ = KeyOf(buckets_[best_bucket][best_slot]);
  min_valid_ = true;
  cur_day_ = DayOf(min_key_.time);
}

void CalendarQueue::Resize(std::size_t new_buckets) {
  if (gap_count_ >= kMinGapSamples) {
    width_ = std::clamp(
        kWidthPerGap * (gap_sum_ / static_cast<double>(gap_count_)),
        kMinWidth, kMaxWidth);
    inv_width_ = 1.0 / width_;
  }
  std::vector<std::vector<SimEvent>> old = std::move(buckets_);
  buckets_.assign(new_buckets, {});
  const std::size_t mask = new_buckets - 1;
  std::uint64_t min_day = ~std::uint64_t{0};
  const auto reinsert = [&](const SimEvent& event) {
    const std::uint64_t day = DayOf(event.time);
    min_day = std::min(min_day, day);
    buckets_[day & mask].push_back(event);
  };
  for (auto& bucket : old) {
    for (const SimEvent& event : bucket) reinsert(event);
  }
  // The staged run's day values are width-dependent too: flush it back.
  for (std::size_t i = today_pos_; i < today_.size(); ++i) {
    reinsert(today_[i]);
  }
  today_.clear();
  today_pos_ = 0;
  cur_day_ = size_ > 0 ? min_day : DayOf(last_pop_time_);
  min_valid_ = false;
  gap_sum_ = 0.0;
  gap_count_ = 0;
  pops_since_resize_ = 0;
  ++resizes_;
}

std::vector<SimEvent> CalendarQueue::SnapshotEvents() const {
  // Draining a scratch copy reuses the engine's own (time, seq)
  // selection — no second ordering implementation to keep in sync.
  CalendarQueue scratch = *this;
  std::vector<SimEvent> events;
  events.reserve(scratch.size());
  while (!scratch.empty()) events.push_back(scratch.Pop());
  return events;
}

void CalendarQueue::RestorePending(const std::vector<SimEvent>& events,
                                   std::uint64_t next_seq) {
  SPPNET_CHECK(empty());
  for (const SimEvent& event : events) {
    SPPNET_CHECK(event.seq < next_seq);
    Insert(event);
  }
  next_seq_ = next_seq;
}

std::size_t CalendarQueue::ApproxMemoryBytes() const {
  std::size_t bytes = buckets_.capacity() * sizeof(buckets_[0]) +
                      (today_.capacity() + lane_.capacity()) *
                          sizeof(SimEvent) +
                      stage_counts_.capacity() * sizeof(std::uint32_t);
  for (const auto& bucket : buckets_) {
    bytes += bucket.capacity() * sizeof(SimEvent);
  }
  return bytes;
}

}  // namespace sppnet
