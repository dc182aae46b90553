// Bit-identity guards for the hot-path kernel optimisations.
//
// The optimised kernels (scratch-reuse LF cutter, beta==2 power fast path,
// flat-state event queue, EDF sort-once GE round) are only admissible if
// they produce *bit-identical* results to the originals -- the repo's
// determinism contract (DESIGN.md section 7) pins figures to seeds, so even
// a last-ulp drift would silently invalidate every pinned artefact.  Four
// layers of defence:
//
//  1. End-to-end RunResults for eight pinned (scheduler, rate, seed,
//     ladder) points, first captured from the pre-optimisation build: the
//     `kernel/` records of tests/goldens.txt (test_goldens).
//  2. Reference-implementation sweeps: the optimised cutter and power model
//     against verbatim copies of the pre-optimisation code across thousands
//     of random instances, field-by-field bitwise.
//  3. Model-based event-queue check: random push/cancel/reschedule/pop
//     interleavings against an obviously-correct reference model.
//  4. GE hot-path memo: cached quality-function slopes against the uncached
//     formula (the per-core cut memo is checked round by round in
//     test_good_enough.cpp).
//  5. Quality-OPT: the replayed water-fill bisection against a verbatim copy
//     of the bisection that evaluates every midpoint, bitwise, on all three
//     quality families.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "opt/job_cutter.h"
#include "opt/quality_opt.h"
#include "power/power_model.h"
#include "quality/quality_function.h"
#include "sim/event_queue.h"

namespace ge {
namespace {

// ---------------------------------------------------------------------------
// 2a. PowerModel beta==2 fast path.  The oracle is the IEEE product
//     a*(g*g), which every Release build and golden has used (GCC folds
//     pow(x, 2.0) to x*x there).  glibc's pow itself is not correctly
//     rounded for y=2: unfolded (-O0), pow(2.759, 2.0) is one ulp off
//     2.759 * 2.759.  So pow is only a <= 1 ulp cross-check.
// ---------------------------------------------------------------------------

// Steps between two non-negative doubles, counted in representable values.
std::uint64_t ulp_distance(double a, double b) {
  const auto ua = std::bit_cast<std::uint64_t>(a);
  const auto ub = std::bit_cast<std::uint64_t>(b);
  return ua > ub ? ua - ub : ub - ua;
}

TEST(KernelEquivalence, PowerModelBetaTwoBitIdenticalToPow) {
  const power::PowerModel fast(5.0, 2.0, 1000.0);
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> speed(0.0, 4000.0);
  for (int i = 0; i < 200000; ++i) {
    const double s = i < 4001 ? static_cast<double>(i) : speed(rng);
    const double ghz = s / 1000.0;
    EXPECT_EQ(fast.power(s), 5.0 * (ghz * ghz)) << "speed=" << s;
    EXPECT_LE(ulp_distance(std::pow(ghz, 2.0), ghz * ghz), 1u) << "speed=" << s;
  }
}

TEST(KernelEquivalence, PowerModelGenericBetaStillUsesPow) {
  const power::PowerModel cubic(5.0, 3.0, 1000.0);
  std::mt19937_64 rng(2025);
  std::uniform_real_distribution<double> speed(0.0, 4000.0);
  for (int i = 0; i < 50000; ++i) {
    const double s = speed(rng);
    EXPECT_EQ(cubic.power(s), 5.0 * std::pow(s / 1000.0, 3.0));
  }
}

TEST(KernelEquivalence, PowerModelRoundTripUnchanged) {
  // speed_for_power deliberately keeps std::pow(., 1/beta): pow(x, 0.5) and
  // sqrt(x) differ in the last ulp on this libm, so no fast path there.
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  for (double w : {0.0, 1.0, 5.0, 7.3, 20.0, 45.0, 80.0}) {
    EXPECT_NEAR(pm.power(pm.speed_for_power(w)), w, 1e-9 * std::max(w, 1.0));
  }
}

// ---------------------------------------------------------------------------
// 2b. LF cutter: optimised prefix-sum implementation vs a verbatim copy of
//     the pre-optimisation algorithm (quadratic re-evaluation per rung).
// ---------------------------------------------------------------------------

constexpr double kQualityTol = 1e-9;

double reference_batch_quality(std::span<const double> targets,
                               std::span<const double> demands,
                               const quality::QualityFunction& f) {
  double achieved = 0.0;
  double potential = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    achieved += f.value(targets[i]);
    potential += f.value(demands[i]);
  }
  return potential > 0.0 ? achieved / potential : 1.0;
}

// Verbatim pre-optimisation cut_longest_first (commit e3d9eef).
opt::CutResult reference_cut_longest_first(std::span<const double> demands,
                                           const quality::QualityFunction& f,
                                           double q_target) {
  opt::CutResult result;
  result.targets.assign(demands.begin(), demands.end());
  const std::size_t n = demands.size();
  if (n == 0 || q_target >= 1.0 - kQualityTol) {
    result.uncut = true;
    result.level = n == 0 ? 0.0 : *std::max_element(demands.begin(), demands.end());
    result.quality = 1.0;
    return result;
  }
  q_target = std::max(q_target, 0.0);

  std::vector<double> levels(demands.begin(), demands.end());
  std::sort(levels.begin(), levels.end(), std::greater<>());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());

  double potential = 0.0;
  for (double p : demands) {
    potential += f.value(p);
  }

  std::vector<double> sorted(demands.begin(), demands.end());
  std::sort(sorted.begin(), sorted.end());

  auto quality_at_level = [&](double level) {
    double achieved = 0.0;
    for (double p : sorted) {
      achieved += f.value(std::min(p, level));
    }
    return achieved / potential;
  };

  double level = levels.front();
  double quality = 1.0;
  int iterations = 0;
  std::size_t next_rung = 1;
  bool overshoot = false;
  while (quality > q_target + kQualityTol) {
    ++iterations;
    const double next_level = next_rung < levels.size() ? levels[next_rung] : 0.0;
    ++next_rung;
    level = next_level;
    quality = quality_at_level(level);
    if (level <= 0.0 && quality > q_target + kQualityTol) {
      break;
    }
    if (quality < q_target - kQualityTol) {
      overshoot = true;
      break;
    }
  }

  if (overshoot) {
    double f_uncut = 0.0;
    std::size_t cut_count = 0;
    for (double p : sorted) {
      if (p <= level + kQualityTol) {
        f_uncut += f.value(p);
      } else {
        ++cut_count;
      }
    }
    const double desired =
        (q_target * potential - f_uncut) / static_cast<double>(cut_count);
    const double clamped = std::clamp(desired, 0.0, 1.0);
    level = f.inverse(clamped);
  }

  result.level = level;
  result.iterations = iterations;
  for (std::size_t i = 0; i < n; ++i) {
    result.targets[i] = std::min(demands[i], level);
  }
  result.quality = reference_batch_quality(result.targets, demands, f);
  return result;
}

void expect_cut_identical(const opt::CutResult& got, const opt::CutResult& want) {
  EXPECT_EQ(got.level, want.level);
  EXPECT_EQ(got.quality, want.quality);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.uncut, want.uncut);
  ASSERT_EQ(got.targets.size(), want.targets.size());
  for (std::size_t i = 0; i < want.targets.size(); ++i) {
    EXPECT_EQ(got.targets[i], want.targets[i]) << "target " << i;
  }
}

TEST(KernelEquivalence, CutterBitIdenticalToReference) {
  const quality::ExponentialQuality expq(0.003, 1000.0);
  const quality::PowerLawQuality plq(0.5, 1000.0);
  const quality::LinearQuality linq(1000.0);
  const quality::QualityFunction* fams[] = {&expq, &plq, &linq};

  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> demand(1.0, 1400.0);
  std::uniform_int_distribution<int> size_dist(1, 40);
  const double q_targets[] = {0.0, 0.2, 0.5, 0.8, 0.85, 0.9, 0.95, 0.99, 1.0};

  opt::CutScratch scratch;  // one scratch across every case: catches stale state
  for (int trial = 0; trial < 400; ++trial) {
    const int n = size_dist(rng);
    std::vector<double> demands(static_cast<std::size_t>(n));
    for (double& d : demands) {
      d = demand(rng);
    }
    if (trial % 5 == 0 && n > 2) {
      // Duplicate demand levels: exercises the rung-dedup path.
      demands[1] = demands[0];
      demands[2] = demands[0];
    }
    for (const quality::QualityFunction* f : fams) {
      for (double q : q_targets) {
        SCOPED_TRACE(f->name() + " q=" + std::to_string(q) +
                     " trial=" + std::to_string(trial));
        const opt::CutResult want = reference_cut_longest_first(demands, *f, q);
        const opt::CutResult got = opt::cut_longest_first(demands, *f, q);
        expect_cut_identical(got, want);
        opt::cut_longest_first(demands, *f, q, scratch);
        expect_cut_identical(scratch.result, want);
      }
    }
  }
  // Empty batch.
  const opt::CutResult empty = opt::cut_longest_first({}, expq, 0.9);
  EXPECT_TRUE(empty.uncut);
  EXPECT_EQ(empty.level, 0.0);
}

TEST(KernelEquivalence, CutLevelBisectionStillMeetsTarget) {
  // cut_level_for_quality changed summation order (prefix sums); it is a
  // test-only cross-check path, so the contract is mathematical, not
  // bitwise: the returned level must achieve >= q_target.
  const quality::ExponentialQuality f(0.003, 1000.0);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> demand(1.0, 1400.0);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> demands(12);
    for (double& d : demands) {
      d = demand(rng);
    }
    for (double q : {0.3, 0.7, 0.9, 0.97}) {
      const double level = opt::cut_level_for_quality(demands, f, q);
      std::vector<double> targets(demands.size());
      for (std::size_t i = 0; i < demands.size(); ++i) {
        targets[i] = std::min(demands[i], level);
      }
      EXPECT_GE(opt::batch_quality(targets, demands, f), q - 1e-6);
    }
  }
}

// ---------------------------------------------------------------------------
// 3. The indexed event heap vs reference models under random interleavings,
//    including cancels of invalid, executed, already-cancelled and stale
//    (recycled-slot) ids.
// ---------------------------------------------------------------------------

TEST(KernelEquivalence, HeapEventQueueMatchesReferenceModel) {
  sim::HeapEventQueue queue;
  // Continuous random times make key collisions measure-zero, so ordering
  // by (time, push order) matches the queue's (time, seq) contract.
  std::map<std::pair<double, std::uint64_t>, sim::EventId> model;
  std::vector<sim::EventId> issued;
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> time_dist(0.0, 100.0);
  std::uniform_int_distribution<int> op_dist(0, 9);
  std::uint64_t pushes = 0;

  auto model_cancel = [&](sim::EventId id) {
    for (auto it = model.begin(); it != model.end(); ++it) {
      if (it->second == id) {
        model.erase(it);
        return true;
      }
    }
    return false;
  };

  for (int step = 0; step < 20000; ++step) {
    const int op = op_dist(rng);
    if (op < 5 || model.empty()) {
      const double t = time_dist(rng);
      const sim::EventId id = queue.push(t, [] {});
      EXPECT_TRUE(queue.is_pending(id));
      issued.push_back(id);
      model.emplace(std::make_pair(t, ++pushes), id);
    } else if (op < 7) {
      // Cancel a random id ever issued -- possibly done, cancelled, or a
      // stale handle whose slot was recycled -- or a never-issued one.
      sim::EventId id;
      if (op == 5 && !issued.empty()) {
        id = issued[std::uniform_int_distribution<std::size_t>(
            0, issued.size() - 1)(rng)];
      } else {
        id = (std::uint64_t{1} << 48) + 1000;  // never issued
      }
      EXPECT_EQ(queue.cancel(id), model_cancel(id)) << "id=" << id;
      EXPECT_FALSE(queue.cancel(0));  // kInvalidEventId is never pending
    } else {
      ASSERT_FALSE(queue.empty());
      const auto expected = model.begin();
      EXPECT_EQ(queue.next_time(), expected->first.first);
      const sim::Event ev = queue.pop();
      EXPECT_EQ(ev.time, expected->first.first);
      EXPECT_EQ(ev.id, expected->second);
      model.erase(expected);
      EXPECT_FALSE(queue.is_pending(ev.id));
      EXPECT_FALSE(queue.cancel(ev.id));  // done events cannot be cancelled
    }
    EXPECT_EQ(queue.size(), model.size());
    EXPECT_EQ(queue.empty(), model.empty());
  }

  // Drain: pop order must equal the model's (time, push order) order.
  while (!model.empty()) {
    const auto expected = model.begin();
    const sim::Event ev = queue.pop();
    EXPECT_EQ(ev.time, expected->first.first);
    EXPECT_EQ(ev.id, expected->second);
    model.erase(expected);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(KernelEquivalence, HeapEventQueueIsPendingTracksLifecycle) {
  sim::HeapEventQueue queue;
  EXPECT_FALSE(queue.is_pending(sim::kInvalidEventId));
  EXPECT_FALSE(queue.is_pending(1));  // not yet issued
  const sim::EventId a = queue.push(1.0, [] {});
  const sim::EventId b = queue.push(2.0, [] {});
  EXPECT_TRUE(queue.is_pending(a));
  EXPECT_TRUE(queue.is_pending(b));
  EXPECT_TRUE(queue.cancel(b));
  EXPECT_FALSE(queue.is_pending(b));
  EXPECT_FALSE(queue.cancel(b));  // double-cancel refused
  EXPECT_EQ(queue.size(), 1u);
  const sim::Event ev = queue.pop();
  EXPECT_EQ(ev.id, a);
  EXPECT_FALSE(queue.is_pending(a));
  EXPECT_TRUE(queue.empty());
}

// Every operation of the heap, push_with_seq and reschedule included,
// against a std::set of (time, seq) keys.  Times sit on a grid so equal
// timestamps are common and order rests on the seq; pushes outnumber pops,
// so the heap grows to a few hundred nodes and cancels hit every depth.  With
// `caller_seqs` the queue sees only push_with_seq / reschedule_with_seq
// with unique random seqs (the sharded stamp pattern); otherwise only
// push / reschedule, whose seqs come from the internal counter.
void heap_matches_set_model(std::uint64_t seed, bool caller_seqs) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               (caller_seqs ? " caller seqs" : " internal seqs"));
  using Key = std::pair<double, std::uint64_t>;
  sim::HeapEventQueue queue;
  std::set<Key> keys;
  std::map<Key, int> tag_of;                // key -> event tag
  std::map<int, Key> key_of;                // live tag -> key
  std::map<int, sim::EventId> id_of;        // live tag -> current id
  std::vector<sim::EventId> retired;        // popped, cancelled or moved ids
  std::set<std::uint64_t> used_seqs;
  int fired = -1;
  int next_tag = 0;
  std::uint64_t counter = 0;  // mirrors the queue's internal seq counter
  std::size_t peak = 0;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> op_dist(0, 19);
  std::uniform_int_distribution<int> grid(0, 400);

  const auto draw_seq = [&]() -> std::uint64_t {
    if (!caller_seqs) {
      return ++counter;
    }
    std::uint64_t seq;
    do {
      seq = rng() >> 1;
    } while (!used_seqs.insert(seq).second);
    return seq;
  };
  const auto random_live_tag = [&]() {
    auto it = key_of.begin();
    std::advance(it, std::uniform_int_distribution<std::size_t>(
                         0, key_of.size() - 1)(rng));
    return it->first;
  };
  const auto retire = [&](sim::EventId id) {
    retired.push_back(id);
    EXPECT_FALSE(queue.is_pending(id));
    EXPECT_FALSE(queue.cancel(id));
  };

  for (int step = 0; step < 6000; ++step) {
    const int op = op_dist(rng);
    const double t = 0.25 * grid(rng);
    if (op < 8 || keys.empty()) {
      const int tag = next_tag++;
      const std::uint64_t seq = draw_seq();
      const sim::EventId id =
          caller_seqs ? queue.push_with_seq(t, seq, [&fired, tag] { fired = tag; })
                      : queue.push(t, [&fired, tag] { fired = tag; });
      ASSERT_TRUE(queue.is_pending(id));
      keys.insert({t, seq});
      tag_of[{t, seq}] = tag;
      key_of[tag] = {t, seq};
      id_of[tag] = id;
    } else if (op < 12) {
      // Cancel: a live event, or a retired / never-issued / bad-generation
      // handle, which must be refused without touching the queue.
      if (op < 10) {
        const int tag = random_live_tag();
        EXPECT_TRUE(queue.cancel(id_of[tag]));
        retire(id_of[tag]);
        keys.erase(key_of[tag]);
        tag_of.erase(key_of[tag]);
        key_of.erase(tag);
        id_of.erase(tag);
      } else if (op == 10 && !retired.empty()) {
        EXPECT_FALSE(queue.cancel(retired[std::uniform_int_distribution<std::size_t>(
            0, retired.size() - 1)(rng)]));
      } else {
        const sim::EventId live = id_of[random_live_tag()];
        EXPECT_FALSE(queue.cancel(live + (std::uint64_t{7} << 32)));  // wrong gen
        EXPECT_FALSE(queue.cancel((std::uint64_t{1} << 31) + 5));      // no slot
        EXPECT_FALSE(queue.cancel(sim::kInvalidEventId));
      }
    } else if (op < 16) {
      // Reschedule a live event, or try a retired handle (no-op, no seq).
      if (op == 15 && !retired.empty()) {
        const std::uint64_t before = queue.total_pushed();
        const sim::EventId stale = retired[std::uniform_int_distribution<std::size_t>(
            0, retired.size() - 1)(rng)];
        EXPECT_EQ(caller_seqs ? queue.reschedule_with_seq(stale, t, 1)
                              : queue.reschedule(stale, t),
                  sim::kInvalidEventId);
        EXPECT_EQ(queue.total_pushed(), before);
      } else {
        const int tag = random_live_tag();
        const sim::EventId old_id = id_of[tag];
        const std::uint64_t seq = draw_seq();
        const sim::EventId id = caller_seqs
                                    ? queue.reschedule_with_seq(old_id, t, seq)
                                    : queue.reschedule(old_id, t);
        ASSERT_NE(id, sim::kInvalidEventId);
        EXPECT_NE(id, old_id);
        EXPECT_TRUE(queue.is_pending(id));
        retire(old_id);
        keys.erase(key_of[tag]);
        tag_of.erase(key_of[tag]);
        keys.insert({t, seq});
        tag_of[{t, seq}] = tag;
        key_of[tag] = {t, seq};
        id_of[tag] = id;
      }
    } else {
      const Key expected = *keys.begin();
      double nt = 0.0;
      std::uint64_t ns = 0;
      queue.next_key(nt, ns);
      EXPECT_EQ(nt, expected.first);
      EXPECT_EQ(ns, expected.second);
      sim::Event ev = queue.pop();
      EXPECT_EQ(ev.time, expected.first);
      const int tag = tag_of[expected];
      EXPECT_EQ(ev.id, id_of[tag]);
      ev.action();
      EXPECT_EQ(fired, tag);
      retire(ev.id);
      keys.erase(expected);
      tag_of.erase(expected);
      key_of.erase(tag);
      id_of.erase(tag);
    }
    peak = std::max(peak, keys.size());
    ASSERT_EQ(queue.size(), keys.size());
    // Eager recycling: no dead entries, so the slot table never outgrows
    // the peak number of concurrently pending events.
    EXPECT_EQ(queue.peak_live(), peak);
    EXPECT_EQ(queue.slot_count(), peak);
    if (!caller_seqs) {
      EXPECT_EQ(queue.total_pushed(), counter);
    }
  }
  while (!keys.empty()) {
    const sim::Event ev = queue.pop();
    EXPECT_EQ(ev.time, keys.begin()->first);
    EXPECT_EQ(ev.id, id_of[tag_of[*keys.begin()]]);
    keys.erase(keys.begin());
  }
  EXPECT_TRUE(queue.empty());
}

TEST(KernelEquivalence, HeapEventQueueMatchesSetModelWithReschedule) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    heap_matches_set_model(seed, /*caller_seqs=*/false);
    heap_matches_set_model(seed, /*caller_seqs=*/true);
  }
}

TEST(KernelEquivalence, HeapEventQueueRecyclesSlotsEagerly) {
  // A cancel frees its slot at once, so cancel + push reuses it (next
  // generation) and a reschedule hands out the id that pair would have.
  sim::HeapEventQueue a;
  sim::HeapEventQueue b;
  const sim::EventId a0 = a.push(5.0, [] {});
  const sim::EventId b0 = b.push(5.0, [] {});
  a.push(6.0, [] {});
  b.push(6.0, [] {});
  EXPECT_TRUE(a.cancel(a0));
  const sim::EventId a1 = a.push(1.0, [] {});
  const sim::EventId b1 = b.reschedule(b0, 1.0);
  EXPECT_EQ(a1, b1);
  EXPECT_EQ(a.slot_count(), 2u);
  EXPECT_EQ(b.slot_count(), 2u);
  EXPECT_EQ(a.total_pushed(), b.total_pushed());
  EXPECT_EQ(a.pop().id, a1);
  EXPECT_EQ(b.pop().id, b1);
  // A churn of cancels never grows the table past the live peak.
  sim::HeapEventQueue c;
  for (int i = 0; i < 1000; ++i) {
    const sim::EventId id = c.push(static_cast<double>(i % 7), [] {});
    c.push(1.0, [] {});
    EXPECT_TRUE(c.cancel(id));
    c.pop();
  }
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.slot_count(), 2u);
  EXPECT_EQ(c.peak_live(), 2u);
}

// ---------------------------------------------------------------------------
// 4. GE hot path: the cached slope clamps against the uncached formula.
// ---------------------------------------------------------------------------

TEST(KernelEquivalence, ExponentialInverseDerivativeMatchesUncachedFormula) {
  // The clamps f'(0) and f'(xmax) are cached at construction; the result
  // must equal the formula that evaluates them per call, bit for bit.
  const auto uncached = [](const quality::ExponentialQuality& f, double slope) {
    if (slope >= f.derivative(0.0)) {
      return 0.0;
    }
    if (slope <= f.derivative(f.xmax())) {
      return f.xmax();
    }
    const double c = f.concavity();
    const double norm = 1.0 - std::exp(-c * f.xmax());
    const double x = -std::log(slope * norm / c) / c;
    return std::clamp(x, 0.0, f.xmax());
  };
  std::mt19937_64 rng(515);
  for (const auto& [c, xmax] : {std::pair{0.003, 1000.0}, std::pair{0.01, 400.0},
                                std::pair{0.0005, 2500.0}}) {
    const quality::ExponentialQuality f(c, xmax);
    const double d0 = f.derivative(0.0);
    const double dmax = f.derivative(xmax);
    std::vector<double> slopes = {d0,
                                  dmax,
                                  std::nextafter(d0, 0.0),
                                  std::nextafter(d0, 1.0),
                                  std::nextafter(dmax, 0.0),
                                  std::nextafter(dmax, 1.0),
                                  0.0,
                                  -1.0,
                                  2.0 * d0};
    std::uniform_real_distribution<double> inside(dmax, d0);
    std::uniform_real_distribution<double> wide(0.0, 2.0 * d0);
    for (int i = 0; i < 20000; ++i) {
      slopes.push_back(i % 2 == 0 ? inside(rng) : wide(rng));
    }
    for (const double slope : slopes) {
      const double got = f.inverse_derivative(slope);
      const double want = uncached(f, slope);
      ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << "c=" << c << " slope=" << slope << " got=" << got << " want=" << want;
    }
    EXPECT_EQ(f.inverse_derivative(d0), 0.0);
    EXPECT_EQ(f.inverse_derivative(dmax), xmax);
  }
}

// ---------------------------------------------------------------------------
// 5. Quality-OPT water-fill: maximize_quality replays the threshold
//    bisection and evaluates only the midpoints near its flip; the result
//    must equal the bisection that evaluates every midpoint, bit for bit.
// ---------------------------------------------------------------------------

namespace reference_qopt {

constexpr double kTol = 1e-9;

// Verbatim pre-replay waterfill (one inverse_derivative per midpoint).
void waterfill(std::span<const opt::AllocJob> jobs, std::size_t l, std::size_t r,
               double budget, const quality::QualityFunction& f,
               std::vector<double>& x) {
  double total_extra = 0.0;
  for (std::size_t j = l; j <= r; ++j) {
    total_extra += jobs[j].max_extra;
  }
  if (budget <= kTol) {
    for (std::size_t j = l; j <= r; ++j) {
      x[j] = 0.0;
    }
    return;
  }
  if (budget >= total_extra - kTol) {
    for (std::size_t j = l; j <= r; ++j) {
      x[j] = jobs[j].max_extra;
    }
    return;
  }
  double theta_hi = 0.0;
  double theta_lo = std::numeric_limits<double>::infinity();
  for (std::size_t j = l; j <= r; ++j) {
    theta_hi = std::max(theta_hi, f.derivative(jobs[j].executed));
    theta_lo = std::min(theta_lo, f.derivative(jobs[j].executed + jobs[j].max_extra));
  }
  auto allocated_at = [&](double theta) {
    const double level = f.inverse_derivative(theta);
    double sum = 0.0;
    for (std::size_t j = l; j <= r; ++j) {
      const double want = level - jobs[j].executed;
      sum += std::clamp(want, 0.0, jobs[j].max_extra);
    }
    return sum;
  };
  double lo = theta_lo;
  double hi = theta_hi;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const bool converged = mid == lo || mid == hi;
    if (allocated_at(mid) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (converged) {
      break;
    }
  }
  const double theta = hi;
  const double level = f.inverse_derivative(theta);
  double used = 0.0;
  for (std::size_t j = l; j <= r; ++j) {
    x[j] = std::clamp(level - jobs[j].executed, 0.0, jobs[j].max_extra);
    used += x[j];
  }
  double residual = budget - used;
  for (std::size_t j = l; j <= r && residual > kTol; ++j) {
    const double slack = jobs[j].max_extra - x[j];
    const double take = std::min(slack, residual);
    x[j] += take;
    residual -= take;
  }
}

void solve(std::span<const opt::AllocJob> jobs, std::size_t l, std::size_t r,
           double base, double budget, std::span<const double> capacity,
           const quality::QualityFunction& f, std::vector<double>& x) {
  budget = std::max(budget, 0.0);
  waterfill(jobs, l, r, budget, f, x);
  if (l == r) {
    return;
  }
  double worst_violation = kTol;
  std::size_t worst_k = r;
  double prefix = 0.0;
  for (std::size_t k = l; k < r; ++k) {
    prefix += x[k];
    const double allowed = std::max(capacity[k] - base, 0.0);
    const double violation = prefix - allowed;
    if (violation > worst_violation) {
      worst_violation = violation;
      worst_k = k;
    }
  }
  if (worst_k == r) {
    return;
  }
  const double left_budget = std::max(capacity[worst_k] - base, 0.0);
  solve(jobs, l, worst_k, base, left_budget, capacity, f, x);
  solve(jobs, worst_k + 1, r, base + left_budget, budget - left_budget, capacity, f,
        x);
}

std::vector<double> maximize_quality(double now, std::span<const opt::AllocJob> jobs,
                                     double speed_cap,
                                     const quality::QualityFunction& f) {
  const std::size_t n = jobs.size();
  std::vector<double> x(n, 0.0);
  if (n == 0 || speed_cap <= 0.0) {
    return x;
  }
  std::vector<double> capacity(n);
  for (std::size_t k = 0; k < n; ++k) {
    capacity[k] = speed_cap * std::max(jobs[k].deadline - now, 0.0);
  }
  solve(jobs, 0, n - 1, 0.0, capacity[n - 1], capacity, f, x);
  return x;
}

}  // namespace reference_qopt

// Runs both implementations on one instance; the first differing job is
// reported with both values.
void expect_qopt_bitwise(std::span<const opt::AllocJob> jobs, double cap,
                         const quality::QualityFunction& f, const std::string& label) {
  opt::QualityOptScratch scratch;
  opt::maximize_quality(0.0, jobs, cap, f, scratch);
  const std::vector<double> want = reference_qopt::maximize_quality(0.0, jobs, cap, f);
  ASSERT_EQ(scratch.extra.size(), want.size()) << label;
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(scratch.extra[j]),
              std::bit_cast<std::uint64_t>(want[j]))
        << label << " f=" << f.name() << " cap=" << cap << " job " << j
        << " got=" << scratch.extra[j] << " want=" << want[j];
  }
}

struct QoptFamily {
  std::string label;
  std::unique_ptr<quality::QualityFunction> f;
  int random_cases;  // the generic inverse_derivative is an 80-step bisection
};

std::vector<QoptFamily> qopt_families() {
  std::vector<QoptFamily> out;
  for (const double c : {5e-4, 3e-3, 5e-2}) {
    out.push_back(
        {"exp", std::make_unique<quality::ExponentialQuality>(c, 1000.0), 3000});
  }
  for (const double gamma : {0.3, 0.7}) {
    out.push_back({"powerlaw", std::make_unique<quality::PowerLawQuality>(gamma, 1000.0),
                   300});
  }
  out.push_back({"linear", std::make_unique<quality::LinearQuality>(1000.0), 1000});
  return out;
}

TEST(KernelEquivalence, QualityOptReplayBitIdenticalOnRandomInstances) {
  std::mt19937_64 rng(2411);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const QoptFamily& fam : qopt_families()) {
    for (int i = 0; i < fam.random_cases; ++i) {
      const std::size_t n = 1 + static_cast<std::size_t>(rng() % 8);
      std::vector<opt::AllocJob> jobs(n);
      double deadline = 0.0;
      for (opt::AllocJob& aj : jobs) {
        aj.executed = unit(rng) < 0.3 ? 0.0 : 600.0 * unit(rng);
        aj.max_extra = unit(rng) < 0.05
                           ? 0.0
                           : std::min(400.0 * unit(rng), 1000.0 - aj.executed);
        deadline += unit(rng) < 0.2 ? 0.0 : 0.05 * unit(rng);
        aj.deadline = deadline;
      }
      double total = 0.0;
      for (const opt::AllocJob& aj : jobs) {
        total += aj.max_extra;
      }
      const double cap = (0.05 + 1.1 * unit(rng)) * total / std::max(deadline, 1e-3);
      expect_qopt_bitwise(jobs, cap, *fam.f, fam.label + " random #" + std::to_string(i));
    }
  }
}

// All deadlines at t = 1 and now = 0: the budget of the single water-fill
// equals the speed cap, so the cases below set it directly.
std::vector<opt::AllocJob> at_one_deadline(
    std::initializer_list<std::pair<double, double>> executed_and_extra) {
  std::vector<opt::AllocJob> jobs;
  for (const auto& [e, w] : executed_and_extra) {
    jobs.push_back(opt::AllocJob{e, w, 1.0});
  }
  return jobs;
}

TEST(KernelEquivalence, QualityOptReplayBitIdenticalAtBudgetEdges) {
  constexpr double kTol = 1e-9;
  const std::vector<std::vector<opt::AllocJob>> instances = {
      at_one_deadline({{0.0, 300.0}}),
      at_one_deadline({{120.0, 80.0}, {0.0, 500.0}}),
      at_one_deadline({{10.0, 200.0}, {400.0, 150.0}, {0.0, 50.0}}),
  };
  for (const QoptFamily& fam : qopt_families()) {
    for (const std::vector<opt::AllocJob>& jobs : instances) {
      double total = 0.0;
      for (const opt::AllocJob& aj : jobs) {
        total += aj.max_extra;
      }
      for (const double budget :
           {0.5 * kTol, kTol, 2.0 * kTol, 1e-6, total - 2.0 * kTol, total - kTol,
            total - 0.5 * kTol, total - 1e-6, std::nextafter(total - kTol, 0.0),
            std::nextafter(total - kTol, total)}) {
        expect_qopt_bitwise(jobs, budget, *fam.f,
                            fam.label + " budget=" + std::to_string(budget));
      }
    }
  }
}

TEST(KernelEquivalence, QualityOptReplayBitIdenticalOnFlatSegments) {
  // Gaps between [e_j, e_j + w_j] make g(L) flat there; a budget equal to a
  // sum of w_j lands the target on such a flat.
  const std::vector<std::vector<opt::AllocJob>> instances = {
      at_one_deadline({{0.0, 100.0}, {300.0, 50.0}}),
      at_one_deadline({{0.0, 100.0}, {300.0, 50.0}, {600.0, 200.0}}),
      at_one_deadline({{500.0, 100.0}, {0.0, 60.0}, {200.0, 40.0}}),
      at_one_deadline({{0.0, 0.0}, {100.0, 100.0}, {400.0, 25.0}}),
  };
  for (const QoptFamily& fam : qopt_families()) {
    for (const std::vector<opt::AllocJob>& jobs : instances) {
      // Every subset sum of the w_j that is not empty or the whole set.
      const std::size_t n = jobs.size();
      for (std::size_t mask = 1; mask + 1 < (std::size_t{1} << n); ++mask) {
        double budget = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          if ((mask >> j) & 1u) {
            budget += jobs[j].max_extra;
          }
        }
        for (const double b :
             {budget, std::nextafter(budget, 0.0), std::nextafter(budget, 1e9)}) {
          expect_qopt_bitwise(jobs, b, *fam.f,
                              fam.label + " flat budget=" + std::to_string(b));
        }
      }
    }
  }
}

TEST(KernelEquivalence, QualityOptReplayBitIdenticalOnEqualExecuted) {
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const QoptFamily& fam : qopt_families()) {
    for (const double e : {0.0, 1.0, 250.0, 700.0}) {
      for (int i = 0; i < 40; ++i) {
        const std::size_t n = 1 + static_cast<std::size_t>(rng() % 8);
        std::vector<opt::AllocJob> jobs(n);
        double total = 0.0;
        for (opt::AllocJob& aj : jobs) {
          aj.executed = e;
          aj.max_extra = i % 4 == 0 ? 100.0 : (1000.0 - e) * unit(rng);
          aj.deadline = 1.0;
          total += aj.max_extra;
        }
        expect_qopt_bitwise(jobs, total * unit(rng), *fam.f,
                            fam.label + " equal e=" + std::to_string(e));
      }
    }
  }
}

}  // namespace
}  // namespace ge
