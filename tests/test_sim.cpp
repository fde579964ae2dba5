// Tests for the analytical (Elmore/D2M/moments) and golden transient engines.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/estimator.hpp"
#include "features/dataset.hpp"
#include "moments_oracle.hpp"
#include "rcnet/generate.hpp"
#include "rcnet/paths.hpp"
#include "sim/golden.hpp"
#include "sim/moments.hpp"
#include "sim/transient.hpp"
#include "sim/wire_analysis.hpp"

namespace {

using namespace gnntrans;
using rcnet::RcNet;

RcNet chain(std::size_t n, double r_ohm, double c_farad) {
  RcNet net;
  net.name = "chain";
  net.source = 0;
  net.sinks = {static_cast<rcnet::NodeId>(n - 1)};
  net.ground_cap.assign(n, c_farad);
  for (rcnet::NodeId v = 1; v < n; ++v)
    net.resistors.push_back({static_cast<rcnet::NodeId>(v - 1), v, r_ohm});
  return net;
}

TEST(Moments, SingleStageElmoreIsRC) {
  // One R into one C: Elmore delay at node 1 = R*C exactly.
  const RcNet net = chain(2, 100.0, 10e-15);
  const sim::Moments m = sim::compute_moments(net);
  EXPECT_NEAR(m.m1[1], 100.0 * 10e-15, 1e-18);
  EXPECT_DOUBLE_EQ(m.m1[0], 0.0);  // source
}

TEST(Moments, ChainElmoreMatchesClosedForm) {
  // Elmore at end of n-stage chain: sum_k R*(n-k)*C with uniform R,C.
  const std::size_t n = 6;
  const double r = 50.0, c = 2e-15;
  const RcNet net = chain(n, r, c);
  const sim::Moments m = sim::compute_moments(net);
  double expected = 0.0;
  for (std::size_t k = 1; k < n; ++k)
    expected += r * static_cast<double>(n - k) * c;
  EXPECT_NEAR(m.m1[n - 1], expected, expected * 1e-9);
}

TEST(Moments, SecondMomentPositiveOnChain) {
  const RcNet net = chain(5, 50.0, 2e-15);
  const sim::Moments m = sim::compute_moments(net);
  for (std::size_t v = 1; v < net.node_count(); ++v) {
    EXPECT_GT(m.m2[v], 0.0);
    EXPECT_GT(m.m3[v], 0.0);
  }
}

class TreeVsMnaSeeded : public ::testing::TestWithParam<int> {};

TEST_P(TreeVsMnaSeeded, TreeTraversalElmoreEqualsMnaMoment) {
  std::mt19937_64 rng(GetParam());
  rcnet::NetGenConfig cfg;
  cfg.non_tree_fraction = 0.0;
  const RcNet net = rcnet::generate_net(cfg, rng, "t");
  ASSERT_TRUE(net.is_tree());
  const std::vector<double> tree_delay = sim::compute_moments(net).m1;
  const sim::Moments m = moments_oracle::dense(net);
  for (std::size_t v = 0; v < net.node_count(); ++v)
    EXPECT_NEAR(tree_delay[v], m.m1[v], 1e-9 * (m.m1[v] + 1e-15)) << "node " << v;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeVsMnaSeeded, ::testing::Range(1, 13));

// ---- compute_moments against the dense oracle (tests/moments_oracle.hpp) ----

TEST(MomentsOracle, DefaultNetsMatchDenseSolve) {
  // About 1k default generator nets, half of them with loops.
  std::mt19937_64 rng(20261018);
  rcnet::NetGenConfig cfg;
  cfg.non_tree_fraction = 0.5;
  std::size_t loops = 0;
  double worst = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const RcNet net = rcnet::generate_net(cfg, rng, "d" + std::to_string(i));
    ASSERT_TRUE(net.validate().empty());
    loops += net.is_tree() ? 0 : 1;
    const double err =
        moments_oracle::worst_error(sim::compute_moments(net), moments_oracle::dense(net));
    worst = std::max(worst, err);
    ASSERT_LE(err, 1e-11) << "net " << i << " with " << net.node_count() << " nodes";
  }
  EXPECT_GT(loops, 400u);
  RecordProperty("worst_relative_error", std::to_string(worst));
}

/// Multiplies every R and C by an independent log-uniform factor in
/// [1e-3, 1e3]: a 10^6 dynamic range within one net.
RcNet with_dynamic_range(RcNet net, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> decades(-3.0, 3.0);
  for (rcnet::Resistor& r : net.resistors) r.ohms *= std::pow(10.0, decades(rng));
  for (double& c : net.ground_cap) c *= std::pow(10.0, decades(rng));
  return net;
}

/// Turns about a fifth of the resistors, on the tree and in loops, into
/// 1e-6 ohm shorts.
RcNet with_shorts(RcNet net, std::mt19937_64& rng) {
  std::bernoulli_distribution pick(0.2);
  for (rcnet::Resistor& r : net.resistors)
    if (pick(rng)) r.ohms = 1e-6;
  return net;
}

/// Adds up to three loop resistors from the source to nodes it does not
/// already touch.
RcNet with_source_loops(RcNet net, std::mt19937_64& rng) {
  std::vector<bool> touches(net.node_count(), false);
  for (const rcnet::Resistor& r : net.resistors)
    if (r.a == net.source || r.b == net.source) touches[r.a] = touches[r.b] = true;
  std::uniform_int_distribution<rcnet::NodeId> node(0, net.node_count() - 1);
  std::uniform_real_distribution<double> ohms(5.0, 500.0);
  for (int added = 0, tries = 0; added < 3 && tries < 50; ++tries) {
    const rcnet::NodeId v = node(rng);
    if (touches[v]) continue;
    touches[v] = true;
    net.resistors.push_back({net.source, v, ohms(rng)});
    ++added;
  }
  return net;
}

/// A w x h resistor mesh (every interior face is a loop) driven at a corner,
/// sinks at the other three corners.
RcNet mesh(rcnet::NodeId w, rcnet::NodeId h, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> ohms(5.0, 80.0);
  std::uniform_real_distribution<double> cap(0.5e-15, 5e-15);
  RcNet net;
  net.name = "mesh";
  net.source = 0;
  net.sinks = {w - 1, w * (h - 1), w * h - 1};
  for (rcnet::NodeId v = 0; v < w * h; ++v) {
    net.ground_cap.push_back(cap(rng));
    if (v % w + 1 < w) net.resistors.push_back({v, v + 1, ohms(rng)});
    if (v + w < w * h) net.resistors.push_back({v, v + w, ohms(rng)});
  }
  return net;
}

/// Nets where a dense solve loses digits: 10^6 R/C range, near-zero-R
/// shorts, loops through the source, 1k-node chains, wide fanout, meshes.
std::vector<RcNet> adversarial_corpus() {
  std::mt19937_64 rng(404);
  rcnet::NetGenConfig cfg;
  cfg.min_nodes = 10;
  cfg.max_nodes = 300;
  cfg.non_tree_fraction = 0.5;
  std::vector<RcNet> corpus;
  for (int i = 0; i < 20; ++i) {
    const RcNet base = rcnet::generate_net(cfg, rng, "adv" + std::to_string(i));
    corpus.push_back(with_dynamic_range(base, rng));
    corpus.push_back(with_shorts(base, rng));
    corpus.push_back(with_source_loops(base, rng));
    corpus.push_back(with_shorts(with_dynamic_range(with_source_loops(base, rng), rng), rng));
  }
  RcNet long_chain = chain(1000, 20.0, 1e-15);
  corpus.push_back(long_chain);
  long_chain.resistors.push_back({0, 999, 5000.0});
  long_chain.resistors.push_back({250, 750, 1e-6});
  corpus.push_back(with_dynamic_range(long_chain, rng));
  for (std::uint32_t fanout : {49u, 64u})
    corpus.push_back(rcnet::generate_net_for_fanout(cfg, rng, "fan", fanout));
  corpus.push_back(mesh(8, 8, rng));
  corpus.push_back(with_dynamic_range(mesh(12, 5, rng), rng));
  return corpus;
}

// Against a quad-precision solve, the plain dense oracle is off by up to
// ~5e-5 on the combined-stress nets, so the corpus is judged against the
// refined oracle and, independently of any oracle, by the MNA residual.
TEST(MomentsOracle, AdversarialCorpusMatchesOracleAndResidual) {
  const std::vector<RcNet> corpus = adversarial_corpus();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const RcNet& net = corpus[i];
    ASSERT_TRUE(net.validate().empty()) << "corpus net " << i;
    const sim::Moments m = sim::compute_moments(net);
    EXPECT_LE(moments_oracle::worst_error(m, moments_oracle::dense(net, 3)), 1e-12)
        << "corpus net " << i << " (" << net.node_count() << " nodes)";
    EXPECT_LE(moments_oracle::residual(net, m), 1e-14)
        << "corpus net " << i << " (" << net.node_count() << " nodes)";
  }
}

/// A 4-node chain plus a 2-node island joined only to itself.
RcNet disconnected_net() {
  RcNet net = chain(4, 50.0, 2e-15);
  net.name = "island";
  net.ground_cap.push_back(1e-15);
  net.ground_cap.push_back(1e-15);
  net.resistors.push_back({4, 5, 30.0});
  net.sinks.push_back(5);
  return net;
}

TEST(Moments, DisconnectedNetThrows) {
  EXPECT_THROW((void)sim::compute_moments(disconnected_net()), std::runtime_error);
}

TEST(Moments, EstimatorRejectsDisconnectedNetBeforeFeaturization) {
  const RcNet net = disconnected_net();
  ASSERT_FALSE(net.validate().empty());

  const cell::CellLibrary lib = cell::CellLibrary::make_default();
  features::WireDatasetConfig data;
  data.net_count = 6;
  data.sim_config.steps = 200;
  data.seed = 3;
  core::WireTimingEstimator::Options opt;
  opt.model.hidden_dim = 4;
  opt.model.gnn_layers = 1;
  opt.model.transformer_layers = 1;
  opt.model.heads = 1;
  opt.model.mlp_hidden = 4;
  opt.train.epochs = 1;
  const auto est = core::WireTimingEstimator::train(
      features::generate_wire_records(data, lib), opt);

  std::mt19937_64 rng(8);
  const features::NetContext ctx = features::random_context(lib, net, rng);
  std::vector<core::NetOutcome> outcomes;
  core::BatchOptions options;
  options.outcomes = &outcomes;
  const std::vector<core::NetBatchItem> batch{{&net, &ctx}};
  const auto results = est.estimate_batch(batch, options);
  ASSERT_EQ(outcomes.size(), 1u);
  // kInvalidNet comes only from the structural gate; had the net reached
  // featurization, compute_moments' throw would read kPathExtractionFailed.
  EXPECT_EQ(outcomes[0].error, core::ErrorCode::kInvalidNet);
  EXPECT_EQ(outcomes[0].featurize_seconds, 0.0);
  EXPECT_EQ(results[0].size(), net.sinks.size());
}

TEST(D2m, BoundedByElmoreOnRandomNets) {
  // D2M is a provable lower-ish estimate; on RC nets it never exceeds Elmore.
  std::mt19937_64 rng(5);
  rcnet::NetGenConfig cfg;
  for (int i = 0; i < 15; ++i) {
    const RcNet net = rcnet::generate_net(cfg, rng, "n");
    const sim::Moments m = sim::compute_moments(net);
    const std::vector<double> d2m = sim::d2m_from_moments(m);
    for (rcnet::NodeId s : net.sinks) {
      EXPECT_GT(d2m[s], 0.0);
      EXPECT_LE(d2m[s], m.m1[s] * 1.0000001);
    }
  }
}

TEST(Moments, LoopReducesElmoreDelay) {
  // Adding a parallel resistor can only speed the net up.
  const RcNet tree = chain(6, 100.0, 5e-15);
  RcNet looped = tree;
  looped.resistors.push_back({0, 5, 300.0});
  const sim::Moments m_tree = sim::compute_moments(tree);
  const sim::Moments m_loop = sim::compute_moments(looped);
  EXPECT_LT(m_loop.m1[5], m_tree.m1[5]);
}

TEST(Moments, AddedCapIncreasesDelayMonotonically) {
  RcNet net = chain(5, 80.0, 3e-15);
  const double base = sim::compute_moments(net).m1[4];
  net.ground_cap[2] *= 2.0;
  EXPECT_GT(sim::compute_moments(net).m1[4], base);
}

TEST(Moments, AddedSeriesResistanceIncreasesDelay) {
  RcNet net = chain(5, 80.0, 3e-15);
  const double base = sim::compute_moments(net).m1[4];
  net.resistors[1].ohms *= 3.0;
  EXPECT_GT(sim::compute_moments(net).m1[4], base);
}

// ---- Transient engine ----

sim::TransientConfig quiet_config() {
  sim::TransientConfig cfg;
  cfg.si.enabled = false;
  cfg.steps = 2000;
  return cfg;
}

TEST(Transient, SinglePoleMatchesAnalyticStepResponse) {
  // Driver R feeds one cap (no wire R): the sink *is* the source node here,
  // so verify against the analytic low-pass ramp response at the probe.
  RcNet net;
  net.name = "pole";
  net.source = 0;
  net.sinks = {1};
  net.ground_cap = {0.1e-15, 20e-15};
  net.resistors = {{0, 1, 1.0}};  // negligible wire R
  sim::TransientConfig cfg = quiet_config();
  cfg.driver_resistance = 500.0;
  const double tau = 500.0 * 20.1e-15;

  const double slew_in = 1e-12;  // near-step input
  const auto [result, wave] = sim::simulate_with_probe(net, cfg, slew_in, 1);
  ASSERT_TRUE(result.sinks[0].settled);
  // Analytic 50% time of first-order step response: tau * ln 2 (plus the tiny
  // ramp offset). Compare total source->sink t50 to ln2*tau within 5%.
  const double t50_total = result.source_t50 + result.sinks[0].delay;
  EXPECT_NEAR(t50_total, tau * std::log(2.0) + slew_in / 0.6 / 2.0,
              0.05 * tau);
}

TEST(Transient, DelayBracketedByD2mAndElmore) {
  // Classic result: for RC nets, 50% delay lies near [D2M, Elmore].
  std::mt19937_64 rng(11);
  rcnet::NetGenConfig cfg;
  cfg.coupling_prob = 0.0;
  const sim::TransientConfig tc = quiet_config();
  for (int i = 0; i < 10; ++i) {
    const RcNet net = rcnet::generate_net(cfg, rng, "n");
    const sim::Moments m = sim::compute_moments(net);
    const std::vector<double> d2m = sim::d2m_from_moments(m);
    const sim::TransientResult res = sim::simulate(net, tc, 2e-11, 50.0);
    for (const sim::SinkTiming& st : res.sinks) {
      ASSERT_TRUE(st.settled);
      EXPECT_GT(st.delay, 0.45 * d2m[st.sink]);
      EXPECT_LT(st.delay, 1.35 * m.m1[st.sink] + 2e-12);
    }
  }
}

TEST(Transient, SlowerInputSlewIncreasesSinkSlew) {
  const RcNet net = chain(8, 60.0, 4e-15);
  const sim::TransientConfig cfg = quiet_config();
  const auto fast = sim::simulate(net, cfg, 1e-11);
  const auto slow = sim::simulate(net, cfg, 1.2e-10);
  ASSERT_TRUE(fast.sinks[0].settled && slow.sinks[0].settled);
  EXPECT_GT(slow.sinks[0].slew, fast.sinks[0].slew);
  EXPECT_GT(slow.source_slew, fast.source_slew);
}

TEST(Transient, StrongerDriverReducesSourceSlew) {
  const RcNet net = chain(8, 60.0, 4e-15);
  const sim::TransientConfig cfg = quiet_config();
  const auto weak = sim::simulate(net, cfg, 4e-11, 800.0);
  const auto strong = sim::simulate(net, cfg, 4e-11, 80.0);
  EXPECT_GT(weak.source_slew, strong.source_slew);
}

TEST(Transient, FartherSinkHasLargerDelay) {
  RcNet net = chain(10, 70.0, 3e-15);
  net.sinks = {3, 9};
  const auto res = sim::simulate(net, quiet_config(), 3e-11);
  ASSERT_EQ(res.sinks.size(), 2u);
  EXPECT_LT(res.sinks[0].delay, res.sinks[1].delay);
}

TEST(Transient, CouplingNoiseChangesTiming) {
  std::mt19937_64 rng(13);
  rcnet::NetGenConfig gen;
  gen.coupling_prob = 1.0;
  gen.coupling_density = 0.4;
  const RcNet net = rcnet::generate_net(gen, rng, "si");
  ASSERT_FALSE(net.couplings.empty());

  sim::TransientConfig si_on = quiet_config();
  si_on.si.enabled = true;
  const auto with_si = sim::simulate(net, si_on, 3e-11);
  const auto without = sim::simulate(net, quiet_config(), 3e-11);
  // SI must perturb at least one sink measurably (aggressors are active).
  double max_shift = 0.0;
  for (std::size_t s = 0; s < with_si.sinks.size(); ++s)
    max_shift = std::max(max_shift,
                         std::abs(with_si.sinks[s].delay - without.sinks[s].delay));
  EXPECT_GT(max_shift, 1e-14);
}

TEST(Transient, SiIsDeterministicPerSeed) {
  std::mt19937_64 rng(14);
  rcnet::NetGenConfig gen;
  gen.coupling_prob = 1.0;
  const RcNet net = rcnet::generate_net(gen, rng, "si");
  sim::TransientConfig cfg = quiet_config();
  cfg.si.enabled = true;
  const auto a = sim::simulate(net, cfg, 3e-11);
  const auto b = sim::simulate(net, cfg, 3e-11);
  for (std::size_t s = 0; s < a.sinks.size(); ++s) {
    EXPECT_DOUBLE_EQ(a.sinks[s].delay, b.sinks[s].delay);
    EXPECT_DOUBLE_EQ(a.sinks[s].slew, b.sinks[s].slew);
  }
}

TEST(Transient, RejectsNonPositiveSlew) {
  const RcNet net = chain(3, 50.0, 2e-15);
  EXPECT_THROW(sim::simulate(net, quiet_config(), 0.0), std::invalid_argument);
}

TEST(WireAnalysis, DownstreamCapAtSourceEqualsTotalCap) {
  std::mt19937_64 rng(15);
  rcnet::NetGenConfig cfg;
  for (int i = 0; i < 8; ++i) {
    const RcNet net = rcnet::generate_net(cfg, rng, "n");
    const sim::WireAnalysis wa = sim::analyze_wire(net);
    const double total = net.total_ground_cap() + net.total_coupling_cap();
    EXPECT_NEAR(wa.downstream_cap[net.source], total, total * 1e-9);
  }
}

TEST(WireAnalysis, StageDelaysSumToPathElmoreOnTree) {
  std::mt19937_64 rng(16);
  rcnet::NetGenConfig cfg;
  cfg.non_tree_fraction = 0.0;
  const RcNet net = rcnet::generate_net(cfg, rng, "n");
  const sim::WireAnalysis wa = sim::analyze_wire(net);
  for (const rcnet::WirePath& path : wa.paths) {
    double sum = 0.0;
    for (rcnet::NodeId v : path.nodes) sum += wa.stage_delay[v];
    EXPECT_NEAR(sum, wa.moments.m1[path.sink], 1e-9 * wa.moments.m1[path.sink]);
  }
}

TEST(GoldenTimer, AccumulatesStats) {
  sim::GoldenTimer timer(quiet_config());
  const RcNet net = chain(5, 50.0, 3e-15);
  timer.time_net(net, 3e-11);
  timer.time_net(net, 3e-11);
  EXPECT_EQ(timer.stats().nets_timed, 2u);
  EXPECT_GT(timer.stats().solver_steps, 0u);
  EXPECT_GT(timer.stats().wall_seconds, 0.0);
  sim::GoldenTimer t2 = timer;
  t2.reset_stats();
  EXPECT_EQ(t2.stats().nets_timed, 0u);
}

}  // namespace
