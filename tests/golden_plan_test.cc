// Golden plan digests: replays 50 seeded, drifting planner sequences and
// compares a digest of every plan against constants recorded from a
// planner whose every pass ran the all-probe k-section, now the test oracle
// in tests/ksection_oracle.h (DESIGN.md §5d).
//
// The other planner tests compare two configurations of the current code
// with each other; this one pins the plans themselves.  Each seed drives one
// RushPlanner through a sequence of passes with time advancing, demand
// draining, arrivals, departures, refreshed and untouched demand snapshots,
// and sample counts that move without a new snapshot (a new KL radius on the
// same PMF under adaptive delta).  Every PlanEntry field of every pass is
// folded into the digest; Plan::peel_probes is not, because the search may
// get cheaper without the plan changing.  Any last-bit drift in an eta, a
// level, a target or a desired count fails the seed.
//
// The utilities cover the four built-in classes plus DecayUtility below,
// which is none of them: it pins the path a user-defined class takes
// through the peel.
//
// To re-record after an intended plan change, set every constant to 0 and
// copy the digests the failures print.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/rush_planner.h"

namespace rush {
namespace {

/// Exponential decay past the budget: U(T) = W for T <= B, and
/// W * exp(-rate * (T - B)) afterwards.  Overrides only the pure virtuals.
class DecayUtility final : public UtilityFunction {
 public:
  DecayUtility(Seconds budget, Priority priority, double rate)
      : budget_(budget), priority_(priority), rate_(rate) {}

  Utility value(Seconds t) const override {
    return t <= budget_ ? priority_ : priority_ * std::exp(-rate_ * (t - budget_));
  }

  Seconds inverse(Utility level, Seconds horizon) const override {
    if (level <= value(horizon)) return horizon;
    if (level > priority_) return -std::numeric_limits<Seconds>::infinity();
    const Seconds t = budget_ + std::log(priority_ / level) / rate_;
    if (t < 0.0) return -std::numeric_limits<Seconds>::infinity();
    return std::min(t, horizon);
  }

  std::string name() const override { return "decay"; }

  std::unique_ptr<UtilityFunction> clone() const override {
    return std::make_unique<DecayUtility>(*this);
  }

 private:
  Seconds budget_;
  Priority priority_;
  double rate_;
};

/// One live job; owns its utility so the planner's pointer stays valid.
struct SimJob {
  PlannerJob planner_job;
  std::unique_ptr<UtilityFunction> utility;
  double mean = 0.0;
  std::size_t bins = 128;
};

std::unique_ptr<UtilityFunction> make_random_utility(Rng& rng, Seconds now) {
  const Seconds budget = now + rng.uniform(40.0, 500.0);
  const double priority = rng.uniform(0.5, 5.0);
  const double beta = rng.uniform(0.01, 0.5);
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return std::make_unique<LinearUtility>(budget, priority, beta);
    case 1:
      return std::make_unique<SigmoidUtility>(budget, priority, beta);
    case 2:
      return std::make_unique<ConstantUtility>(priority);
    case 3:
      return std::make_unique<StepUtility>(budget, priority);
    default:
      return std::make_unique<DecayUtility>(budget, priority, 0.1 * beta);
  }
}

void refresh_demand(Rng& rng, SimJob& job) {
  const double sigma = rng.uniform(0.05, 0.3) * job.mean;
  job.planner_job.set_demand(QuantizedPmf::gaussian(
      job.mean, sigma, job.bins, job.mean * 3.5 / static_cast<double>(job.bins)));
}

std::unique_ptr<SimJob> make_sim_job(Rng& rng, JobId id, Seconds now) {
  auto job = std::make_unique<SimJob>();
  job->utility = make_random_utility(rng, now);
  job->mean = rng.uniform(30.0, 900.0);
  job->bins = rng.uniform_int(0, 1) == 0 ? 128 : 256;
  job->planner_job.id = id;
  job->planner_job.mean_runtime = rng.uniform(2.0, 30.0);
  job->planner_job.samples = static_cast<std::size_t>(rng.uniform_int(0, 60));
  job->planner_job.utility = job->utility.get();
  refresh_demand(rng, *job);
  return job;
}

/// 64-bit FNV-1a over the bit patterns of the folded values.
class Digest {
 public:
  void add(std::uint64_t value) {
    hash_ ^= value;
    hash_ *= 0x100000001B3ULL;
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void fold_plan(const Plan& plan, Digest& digest) {
  digest.add(plan.computed_at);
  digest.add(static_cast<std::uint64_t>(plan.entries.size()));
  for (const PlanEntry& e : plan.entries) {
    digest.add(static_cast<std::uint64_t>(e.id));
    digest.add(e.eta);
    digest.add(e.target_completion);
    digest.add(e.utility_level);
    digest.add(static_cast<std::uint64_t>(e.impossible ? 1 : 0));
    digest.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.desired_containers)));
  }
}

/// Plays one seeded sequence and returns the digest of all its plans.
std::uint64_t replay_digest(std::uint64_t seed) {
  Rng rng(seed * 104729 + 31);
  RushConfig config;
  config.adaptive_delta = seed % 2 == 0;
  config.audit_invariants = true;
  RushPlanner planner(config);

  const ContainerCount capacity = 2 + static_cast<int>(rng.uniform_int(0, 30));
  Seconds now = rng.uniform(0.0, 200.0);
  JobId next_id = 0;
  std::vector<std::unique_ptr<SimJob>> sim;
  const int initial = 3 + static_cast<int>(rng.uniform_int(0, 12));
  for (int i = 0; i < initial; ++i) sim.push_back(make_sim_job(rng, next_id++, now));

  Digest digest;
  for (int pass = 0; pass < 24; ++pass) {
    if (pass > 0) {
      // One scheduling event of drift: time advances, demand drains at
      // about the cluster rate, drained jobs leave, and arrivals reshuffle
      // the layers.
      const Seconds dt = rng.uniform(1.0, 10.0);
      now += dt;
      double total = 0.0;
      for (const auto& job : sim) total += job->mean;
      for (auto& job : sim) {
        const double share = static_cast<double>(capacity) * job->mean / total;
        job->mean -= share * dt * rng.uniform(0.6, 1.4);
      }
      sim.erase(std::remove_if(sim.begin(), sim.end(),
                               [](const std::unique_ptr<SimJob>& j) {
                                 return j->mean < 4.0;
                               }),
                sim.end());
      if (rng.uniform(0.0, 1.0) < 0.25 || sim.empty()) {
        sim.push_back(make_sim_job(rng, next_id++, now));
      }
      // Some jobs get a fresh demand snapshot, some only a new sample count
      // on the snapshot they already had, and the rest are untouched.
      for (auto& job : sim) {
        const double r = rng.uniform(0.0, 1.0);
        if (r < 0.45) {
          job->mean *= rng.uniform(0.97, 1.03);
          refresh_demand(rng, *job);
        } else if (r < 0.6) {
          job->planner_job.samples += 1;
        }
      }
    }
    std::vector<PlannerJob> jobs;
    jobs.reserve(sim.size());
    for (const auto& job : sim) jobs.push_back(job->planner_job);
    fold_plan(planner.plan(jobs, capacity, now), digest);
  }
  return digest.value();
}

constexpr std::uint64_t kGolden[50] = {
    0x42ce13512c7f6e6aULL, 0xeb606bc72f41c13dULL, 0x857a4a8fe56ad1d2ULL,
    0x32af92c1251bb1cULL, 0x7f3587b278d4300cULL, 0xacd478053e7f1c4bULL,
    0x19c8cad298d64450ULL, 0xde2e93bca3a333ebULL, 0x4fbea816244e94eaULL,
    0x94e5153c6c7209b0ULL, 0x4525688f13fae4f6ULL, 0xca6588d96d05c9b9ULL,
    0x73ea3f8dd86f800cULL, 0xf7dc54b73b7a56f0ULL, 0x303d29fbb7d96d20ULL,
    0x5b0049771d1f7437ULL, 0x459b070fce52d21dULL, 0x2fbc9e331fff11aeULL,
    0x96de57e2680bfc7ULL, 0x2feeb781e89ec26cULL, 0xa019e133b076f8e4ULL,
    0xcdc5fe0b96007a61ULL, 0xccf6989b9dc14bf7ULL, 0xc3c0cceafb750780ULL,
    0xf6c2fe426ea0ae0fULL, 0xf16f2ab0945ff17dULL, 0xd21f04eb440a8a92ULL,
    0x3c3486dfcc4ae71fULL, 0x82fbba777eaa0468ULL, 0xdf88df9f37851f27ULL,
    0x8869ab1297ad017fULL, 0x1f9631bdf2342630ULL, 0xeb18678738bd8a12ULL,
    0x8c4d239643eb8ac4ULL, 0x43a0f0997479885fULL, 0xd9701009630cb69ULL,
    0xd0954cd855e6e141ULL, 0x2789bbdf444226efULL, 0x2b3068175d529fffULL,
    0x2bc5c8e2d8195734ULL, 0xcd800bdaf7a1a123ULL, 0x8f5862ed93e804bbULL,
    0x7b695558ea348f08ULL, 0xbac566548c0b0d75ULL, 0x18a2cbe88a86b714ULL,
    0x2da43e269b856321ULL, 0x978b458fec4c3f07ULL, 0xc8d3eae61f6d93bcULL,
    0xcf471d8f4d9de33ULL, 0x25f016dbb0189ad3ULL,
};

class GoldenPlanTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenPlanTest, DigestMatchesRecordedPlans) {
  const std::uint64_t seed = GetParam();
  const std::uint64_t digest = replay_digest(seed);
  EXPECT_EQ(digest, kGolden[seed - 1])
      << "seed " << seed << " digest 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenPlanTest, ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace rush
