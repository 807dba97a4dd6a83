// Tests for the scenario subsystem: the ScenarioRegistry catalog, the shared-
// bottleneck MultiFlowCcEnv (observation layout, rewards, flow arrival/departure,
// fairness introspection, determinism), the episode-network builder it shares
// with mocc_simulate, and scenario rollout collection through the
// PPO/ThreadPool engine (serial vs parallel bit-identity, scenario-sampled offline
// training).
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/offline_trainer.h"
#include "src/core/preference_model.h"
#include "src/envs/multi_flow_cc_env.h"
#include "src/envs/scenario.h"
#include "src/rl/ppo.h"

namespace mocc {
namespace {

CcEnvConfig BaseEnvConfig() { return MoccConfig{}.MakeEnvConfig(); }

TEST(ScenarioRegistryTest, CatalogNamesAreResolvableAndDescribed) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  const std::vector<std::string> names = registry.Names();
  ASSERT_GE(names.size(), 8u);  // static, traces, arrival, many-flow, friendliness
  for (const std::string& name : names) {
    const Scenario* scenario = registry.Find(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name, name);
    EXPECT_FALSE(scenario->description.empty()) << name;
    std::string error;
    EXPECT_TRUE(registry.Resolve(name, &error).has_value()) << error;
  }
  // The catalog spans both kinds of workload.
  EXPECT_FALSE(registry.Find("static")->IsMultiFlow());
  EXPECT_TRUE(registry.Find("many-flow")->IsMultiFlow());
  EXPECT_TRUE(registry.Find("vs-cubic")->IsMultiFlow());
  // ... and the topology-general entries.
  ASSERT_NE(registry.Find("hetero-rtt"), nullptr);
  EXPECT_EQ(registry.Find("hetero-rtt")->agent_extra_delay_s.size(), 4u);
  ASSERT_NE(registry.Find("parking-lot"), nullptr);
  EXPECT_EQ(registry.Find("parking-lot")->topology.kind, TopologyKind::kParkingLot);
  ASSERT_NE(registry.Find("reverse-path"), nullptr);
  EXPECT_EQ(registry.Find("reverse-path")->topology.kind, TopologyKind::kReversePath);
}

TEST(ScenarioTopologyTest, HeteroRttAgentsSeeTheirOwnBaseRtt) {
  const Scenario* scenario = ScenarioRegistry::Global().Find("hetero-rtt");
  ASSERT_NE(scenario, nullptr);
  auto env = scenario->MakeMultiFlowEnv(BaseEnvConfig(), 5);
  env->SetObjective(BalancedObjective());
  env->Reset();
  // Base RTTs follow the configured 0/10/25/50 ms extra-delay ladder.
  const double base = env->current_link().BaseRttS();
  EXPECT_DOUBLE_EQ(env->AgentBaseRttS(0), base);
  EXPECT_DOUBLE_EQ(env->AgentBaseRttS(1), base + 0.020);
  EXPECT_DOUBLE_EQ(env->AgentBaseRttS(2), base + 0.050);
  EXPECT_DOUBLE_EQ(env->AgentBaseRttS(3), base + 0.100);
  // The synchronized step covers the slowest flow's propagation RTT.
  EXPECT_GE(env->step_duration_s(), env->AgentBaseRttS(3));
  // Flows with longer RTT really measure longer minimum RTTs on the wire.
  std::vector<double> actions(4, 0.0);
  for (int step = 0; step < 40; ++step) {
    env->Step(actions);
  }
  double prev_rtt = 0.0;
  for (int agent = 0; agent < 4; ++agent) {
    const MonitorReport& report = env->agent_last_report(agent);
    EXPECT_GT(report.min_rtt_s, prev_rtt) << "agent " << agent;
    prev_rtt = report.min_rtt_s;
  }
}

TEST(ScenarioTopologyTest, NewTopologyScenariosRunEpisodesEndToEnd) {
  for (const char* name : {"hetero-rtt", "parking-lot", "reverse-path"}) {
    const Scenario* scenario = ScenarioRegistry::Global().Find(name);
    ASSERT_NE(scenario, nullptr) << name;
    ASSERT_TRUE(scenario->IsMultiFlow()) << name;
    auto env = scenario->MakeMultiFlowEnv(BaseEnvConfig(), 17);
    env->SetObjective(BalancedObjective());
    std::vector<std::vector<double>> obs = env->Reset();
    ASSERT_EQ(obs.size(), static_cast<size_t>(scenario->num_agents)) << name;
    std::vector<double> actions(static_cast<size_t>(scenario->num_agents), 0.0);
    int64_t acked = 0;
    for (int step = 0; step < 60; ++step) {
      for (size_t i = 0; i < actions.size(); ++i) {
        actions[i] = (step % 3 == 0) ? 0.4 : -0.2;
      }
      const VectorStepResult r = env->Step(actions);
      ASSERT_EQ(r.rewards.size(), actions.size()) << name;
      for (double reward : r.rewards) {
        EXPECT_TRUE(std::isfinite(reward)) << name;
      }
    }
    for (double throughput : env->AgentAvgThroughputsBps(0.0, env->now_s())) {
      EXPECT_GE(throughput, 0.0) << name;
      acked += throughput > 0.0 ? 1 : 0;
    }
    EXPECT_GT(acked, 0) << name << ": no agent delivered anything";
    EXPECT_GT(env->LastStepJainIndex(), 0.0) << name;
  }
}

TEST(ScenarioTopologyTest, NewScenarioEpisodesAreBitIdenticalGivenSeed) {
  for (const char* name : {"hetero-rtt", "parking-lot", "reverse-path"}) {
    const Scenario* scenario = ScenarioRegistry::Global().Find(name);
    ASSERT_NE(scenario, nullptr) << name;
    auto run = [&](uint64_t seed) {
      auto env = scenario->MakeMultiFlowEnv(BaseEnvConfig(), seed);
      env->SetObjective(BalancedObjective());
      std::vector<double> digest;
      auto obs = env->Reset();
      std::vector<double> actions(static_cast<size_t>(scenario->num_agents), 0.0);
      for (int step = 0; step < 30; ++step) {
        for (size_t i = 0; i < actions.size(); ++i) {
          actions[i] = ((step + static_cast<int>(i)) % 2 == 0) ? 0.5 : -0.5;
        }
        const VectorStepResult r = env->Step(actions);
        digest.insert(digest.end(), r.rewards.begin(), r.rewards.end());
      }
      return digest;
    };
    const auto a = run(77);
    const auto b = run(77);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << name << " diverged at " << i;
    }
    EXPECT_NE(run(77), run(78)) << name;
  }
}

TEST(ScenarioTraceCacheTest, CachedGeneratorRunsOncePerEnv) {
  // cache_per_env: the generator runs exactly once, on the first Reset, and its
  // schedule is reused by every later episode of the same env.
  auto make_counting_generator = [](int* calls) {
    return [calls](const LinkParams& link, Rng*) {
      ++*calls;
      return BandwidthTrace::Oscillating(0.5 * link.bandwidth_bps, 1.5 * link.bandwidth_bps,
                                         5.0, 60.0);
    };
  };
  int cached_calls = 0;
  CcEnv cached_env(BaseEnvConfig(), /*seed=*/5);
  cached_env.SetTraceGenerator(make_counting_generator(&cached_calls),
                               /*cache_per_env=*/true);
  for (int episode = 0; episode < 3; ++episode) {
    cached_env.Reset();
  }
  EXPECT_EQ(cached_calls, 1);

  int fresh_calls = 0;
  CcEnv fresh_env(BaseEnvConfig(), /*seed=*/5);
  fresh_env.SetTraceGenerator(make_counting_generator(&fresh_calls));
  for (int episode = 0; episode < 3; ++episode) {
    fresh_env.Reset();
  }
  EXPECT_EQ(fresh_calls, 3);

  // Re-installing a generator drops the cached schedule.
  cached_env.SetTraceGenerator(make_counting_generator(&cached_calls),
                               /*cache_per_env=*/true);
  cached_env.Reset();
  EXPECT_EQ(cached_calls, 2);

  // Same contract on the multi-flow env.
  int multi_calls = 0;
  MultiFlowCcEnvConfig multi_config;
  multi_config.num_agents = 2;
  multi_config.trace_generator = make_counting_generator(&multi_calls);
  multi_config.cache_trace_per_env = true;
  MultiFlowCcEnv multi_env(multi_config, /*seed=*/6);
  for (int episode = 0; episode < 3; ++episode) {
    multi_env.Reset();
  }
  EXPECT_EQ(multi_calls, 1);
}

TEST(ScenarioTraceCacheTest, CellularScenarioCachesItsTracePerEnv) {
  // The catalog opts cellular in (its schedule expansion costs as much as an
  // episode — the BENCH_scenarios 0.43 M env-steps/s floor before caching), and
  // envs built from it still differ by seed on the first episode's draw.
  const Scenario* cellular = ScenarioRegistry::Global().Find("cellular");
  ASSERT_NE(cellular, nullptr);
  EXPECT_TRUE(cellular->cache_trace_per_env);
  EXPECT_FALSE(ScenarioRegistry::Global().Find("random-walk")->cache_trace_per_env);

  auto env_a = cellular->MakeSingleFlowEnv(BaseEnvConfig(), /*seed=*/1);
  auto env_b = cellular->MakeSingleFlowEnv(BaseEnvConfig(), /*seed=*/2);
  env_a->Reset();
  env_b->Reset();
  // Different seeds sample different links and phases, so the effective starting
  // bandwidths should differ (equality would mean the envs share one schedule).
  EXPECT_NE(env_a->current_bandwidth_bps(), env_b->current_bandwidth_bps());
}

TEST(ScenarioRegistryTest, UnknownNamesAndEmptyListsAreErrors) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  std::string error;
  EXPECT_FALSE(registry.Resolve("no-such-scenario", &error).has_value());
  EXPECT_NE(error.find("no-such-scenario"), std::string::npos);
  EXPECT_FALSE(registry.ResolveList("", &error).has_value());
  EXPECT_FALSE(registry.ResolveList("static,bogus", &error).has_value());
}

TEST(ScenarioRegistryTest, ResolveListSplitsOnCommas) {
  std::string error;
  const auto scenarios =
      ScenarioRegistry::Global().ResolveList("static,many-flow,oscillating", &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  ASSERT_EQ(scenarios->size(), 3u);
  EXPECT_EQ((*scenarios)[0].name, "static");
  EXPECT_EQ((*scenarios)[1].name, "many-flow");
  EXPECT_EQ((*scenarios)[2].name, "oscillating");
}

TEST(ScenarioRegistryTest, MahimahiPathResolvesToTraceDrivenScenario) {
  const std::string path = ::testing::TempDir() + "/scenario_mahimahi.txt";
  {
    std::ofstream out(path);
    for (int i = 0; i < 2000; ++i) {
      out << i << "\n";  // 1 pkt/ms = 12 Mbps for 2 s
    }
  }
  std::string error;
  const auto scenario = ScenarioRegistry::Global().Resolve("mahimahi:" + path, &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_FALSE(scenario->IsMultiFlow());
  auto env = scenario->MakeSingleFlowEnv(BaseEnvConfig(), 7);
  env->Reset();
  EXPECT_NEAR(env->current_bandwidth_bps(), 1000.0 * kDefaultPacketSizeBits, 1e-6);
  std::remove(path.c_str());
  EXPECT_FALSE(
      ScenarioRegistry::Global().Resolve("mahimahi:/no/such/file", &error).has_value());
}

TEST(ScenarioTest, MakeBaselineCcKnowsTheCatalogSchemes) {
  for (const std::string scheme :
       {"cubic", "newreno", "vegas", "bbr", "copa", "allegro", "vivace"}) {
    EXPECT_NE(MakeBaselineCc(scheme), nullptr) << scheme;
  }
  EXPECT_EQ(MakeBaselineCc("quic-magic"), nullptr);
}

TEST(MultiFlowCcEnvTest, ObservationLayoutMatchesSingleFlowEnv) {
  MultiFlowCcEnvConfig config;
  config.num_agents = 3;
  config.history_len = 5;
  MultiFlowCcEnv env(config, 3);
  env.SetAgentObjective(1, WeightVector(0.7, 0.2, 0.1));
  const auto obs = env.Reset();
  ASSERT_EQ(obs.size(), 3u);
  for (const auto& o : obs) {
    ASSERT_EQ(o.size(), env.ObservationDim());
    ASSERT_EQ(o.size(), 3u + 15u);
  }
  EXPECT_DOUBLE_EQ(obs[1][0], 0.7);
  EXPECT_DOUBLE_EQ(obs[1][1], 0.2);
  EXPECT_DOUBLE_EQ(obs[1][2], 0.1);
}

TEST(MultiFlowCcEnvTest, RewardsStayInUnitIntervalAndEpisodeTerminates) {
  MultiFlowCcEnvConfig config;
  config.num_agents = 4;
  config.max_steps_per_episode = 60;
  MultiFlowCcEnv env(config, 5);
  env.SetObjective(BalancedObjective());
  env.Reset();
  std::vector<double> actions(4);
  int steps = 0;
  bool done = false;
  while (!done) {
    for (size_t i = 0; i < actions.size(); ++i) {
      actions[i] = (steps + static_cast<int>(i)) % 2 == 0 ? 1.0 : -1.0;
    }
    const VectorStepResult r = env.Step(actions);
    ASSERT_EQ(r.rewards.size(), 4u);
    ASSERT_EQ(r.observations.size(), 4u);
    for (double reward : r.rewards) {
      EXPECT_GE(reward, 0.0);
      EXPECT_LE(reward, 1.0);
    }
    done = r.done;
    ++steps;
    ASSERT_LE(steps, 60);
  }
  EXPECT_EQ(steps, 60);
}

TEST(MultiFlowCcEnvTest, StaggeredAgentsArriveOnSchedule) {
  MultiFlowCcEnvConfig config;
  config.num_agents = 3;
  config.agent_stagger_s = 1.0;
  config.fixed_link = LinkParams{};  // 12 Mbps, 20 ms, base RTT 40 ms
  config.step_min_duration_s = 0.05;
  MultiFlowCcEnv env(config, 9);
  env.SetObjective(BalancedObjective());
  env.Reset();  // clock is now at one step (50 ms)
  EXPECT_TRUE(env.AgentStarted(0));
  EXPECT_FALSE(env.AgentStarted(1));
  EXPECT_FALSE(env.AgentStarted(2));
  EXPECT_EQ(env.ActiveFlowCount(), 1);

  std::vector<double> actions(3, 0.0);
  // A not-yet-arrived agent earns exactly zero reward.
  const VectorStepResult early = env.Step(actions);
  EXPECT_GT(early.rewards[0], 0.0);
  EXPECT_DOUBLE_EQ(early.rewards[1], 0.0);

  while (env.now_s() < 2.5) {
    env.Step(actions);
  }
  EXPECT_TRUE(env.AgentStarted(1));
  EXPECT_TRUE(env.AgentStarted(2));
  EXPECT_EQ(env.ActiveFlowCount(), 3);
}

TEST(MultiFlowCcEnvTest, CompetitorScheduleDrivesActiveFlowCount) {
  MultiFlowCcEnvConfig config;
  config.num_agents = 2;
  config.fixed_link = LinkParams{};
  config.step_min_duration_s = 0.05;
  config.competitor_schemes = {"cubic"};
  config.competitor_start_s = 1.0;
  config.competitor_stop_s = 2.0;
  MultiFlowCcEnv env(config, 11);
  env.SetObjective(BalancedObjective());
  env.Reset();
  EXPECT_EQ(env.ActiveFlowCount(), 2);  // competitor not yet arrived
  std::vector<double> actions(2, 0.0);
  while (env.now_s() < 1.4) {
    env.Step(actions);
  }
  EXPECT_EQ(env.ActiveFlowCount(), 3);  // competitor sharing the bottleneck
  while (env.now_s() < 2.4) {
    env.Step(actions);
  }
  EXPECT_EQ(env.ActiveFlowCount(), 2);  // competitor departed
}

TEST(MultiFlowCcEnvTest, FairShareRewardIsAtLeastFullPipeReward) {
  // Same seed and actions; the only difference is the reward's capacity term
  // (bandwidth/N vs bandwidth), so fair-share rewards dominate pointwise.
  auto run = [](bool fair_share) {
    MultiFlowCcEnvConfig config;
    config.num_agents = 4;
    config.fair_share_reward = fair_share;
    MultiFlowCcEnv env(config, 13);
    env.SetObjective(ThroughputObjective());
    env.Reset();
    std::vector<double> rewards;
    std::vector<double> actions(4, 0.5);
    for (int i = 0; i < 50; ++i) {
      const VectorStepResult r = env.Step(actions);
      rewards.insert(rewards.end(), r.rewards.begin(), r.rewards.end());
    }
    return rewards;
  };
  const std::vector<double> fair = run(true);
  const std::vector<double> full = run(false);
  ASSERT_EQ(fair.size(), full.size());
  bool strictly_greater_somewhere = false;
  for (size_t i = 0; i < fair.size(); ++i) {
    EXPECT_GE(fair[i], full[i] - 1e-12);
    strictly_greater_somewhere = strictly_greater_somewhere || fair[i] > full[i];
  }
  EXPECT_TRUE(strictly_greater_somewhere);
}

TEST(MultiFlowCcEnvTest, JainIntrospectionIsInUnitIntervalAndSeesImbalance) {
  MultiFlowCcEnvConfig config;
  config.num_agents = 2;
  config.fixed_link = LinkParams{};
  MultiFlowCcEnv env(config, 17);
  env.SetObjective(BalancedObjective());
  env.Reset();
  // Drive the flows apart: agent 0 up, agent 1 down every step.
  std::vector<double> actions = {2.0, -2.0};
  for (int i = 0; i < 150; ++i) {
    env.Step(actions);
  }
  const double jain = env.JainIndex(env.now_s() / 2, env.now_s());
  EXPECT_GT(jain, 0.0);
  EXPECT_LE(jain, 1.0);
  EXPECT_LT(jain, 0.95);  // deliberately unfair rates must show up in the index
  EXPECT_GT(env.LastStepJainIndex(), 0.0);
  EXPECT_LE(env.LastStepJainIndex(), 1.0);
  const auto throughputs = env.AgentAvgThroughputsBps(env.now_s() / 2, env.now_s());
  ASSERT_EQ(throughputs.size(), 2u);
  EXPECT_GT(throughputs[0], throughputs[1]);
}

TEST(MultiFlowCcEnvTest, EpisodesAreBitIdenticalGivenSeed) {
  auto run = [](uint64_t seed) {
    MultiFlowCcEnvConfig config;
    config.num_agents = 3;
    config.max_steps_per_episode = 40;
    config.competitor_schemes = {"bbr"};
    MultiFlowCcEnv env(config, seed);
    env.SetObjective(BalancedObjective());
    std::vector<double> all;
    auto obs = env.Reset();
    for (const auto& o : obs) {
      all.insert(all.end(), o.begin(), o.end());
    }
    std::vector<double> actions(3);
    for (int step = 0; step < 40; ++step) {
      for (int i = 0; i < 3; ++i) {
        actions[static_cast<size_t>(i)] = ((step + i) % 2 == 0) ? 0.8 : -0.6;
      }
      const VectorStepResult r = env.Step(actions);
      all.insert(all.end(), r.rewards.begin(), r.rewards.end());
      for (const auto& o : r.observations) {
        all.insert(all.end(), o.begin(), o.end());
      }
    }
    return all;
  };
  const std::vector<double> a = run(31);
  const std::vector<double> b = run(31);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "diverged at element " << i;
  }
  EXPECT_NE(run(31), run(32));
}

// BuildEpisodeNetwork is the one episode-network builder behind MultiFlowCcEnv
// and mocc_simulate; golden episodes and benchmark digests stay stable only
// while its paths, RTT references and Rng draws stay exactly as pinned here.
LinkParams EpisodeTestLink() {
  LinkParams link;
  link.bandwidth_bps = 8e6;
  link.one_way_delay_s = 0.017;
  link.queue_capacity_pkts = 120;
  return link;
}

// True when `rng` and `reference` are at the same stream position.
bool SameRngPosition(Rng rng, Rng reference) {
  for (int i = 0; i < 4; ++i) {
    if (rng.NextU64() != reference.NextU64()) return false;
  }
  return true;
}

TEST(EpisodeNetworkTest, DumbbellPathsScheduleEcnAndRtts) {
  EpisodeSpec spec;
  spec.num_agents = 3;
  spec.agent_extra_delay_s = {0.0, 0.012};
  spec.competitor_schemes = {"cubic", "bbr"};
  spec.competitor_start_s = 1.5;
  spec.competitor_stop_s = 6.0;
  spec.aqm.kind = AqmKind::kRed;
  spec.aqm.ecn = true;
  const LinkParams link = EpisodeTestLink();
  Rng rng(5);
  const Rng before = rng;
  const EpisodeNetwork episode = BuildEpisodeNetwork(spec, link, &rng);

  ASSERT_EQ(episode.topology.links.size(), 1u);
  EXPECT_EQ(episode.topology.links[0].aqm.kind, AqmKind::kRed);
  EXPECT_TRUE(episode.topology.links[0].fault.empty());
  EXPECT_TRUE(episode.topology.links[0].wifi_jitter.empty());
  ASSERT_EQ(episode.agents.size(), 3u);
  ASSERT_EQ(episode.agent_base_rtt_s.size(), 3u);
  const double extras[] = {0.0, 0.012, 0.0};  // the ladder cycles
  for (size_t i = 0; i < 3; ++i) {
    const FlowOptions& agent = episode.agents[i];
    EXPECT_EQ(agent.path, (std::vector<int>{0}));
    EXPECT_TRUE(agent.ack_path.empty());
    EXPECT_TRUE(agent.ecn_capable);
    EXPECT_EQ(agent.extra_one_way_delay_s, extras[i]);
    EXPECT_EQ(episode.agent_base_rtt_s[i], link.BaseRttS() + 2.0 * extras[i]);
  }
  ASSERT_EQ(episode.competitors.size(), 2u);
  for (const FlowOptions& competitor : episode.competitors) {
    EXPECT_EQ(competitor.path, (std::vector<int>{0}));
    EXPECT_EQ(competitor.start_time_s, 1.5);
    EXPECT_EQ(competitor.stop_time_s, 6.0);
    EXPECT_FALSE(competitor.ecn_capable);  // competitors stay non-ECT
  }
  EXPECT_TRUE(SameRngPosition(rng, before));  // nothing randomized, nothing drawn
}

TEST(EpisodeNetworkTest, ParkingLotAgentsCrossEveryHopAtHopsTimesBaseRtt) {
  EpisodeSpec spec;
  spec.num_agents = 2;
  spec.topology.kind = TopologyKind::kParkingLot;
  spec.topology.hops = 3;
  spec.agent_extra_delay_s = {0.005};
  spec.competitor_schemes = {"cubic", "cubic", "cubic", "cubic"};
  const LinkParams link = EpisodeTestLink();
  Rng rng(6);
  const EpisodeNetwork episode = BuildEpisodeNetwork(spec, link, &rng);

  ASSERT_EQ(episode.topology.links.size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(episode.agents[i].path, (std::vector<int>{0, 1, 2}));
    EXPECT_FALSE(episode.agents[i].ecn_capable);
    EXPECT_EQ(episode.agent_base_rtt_s[i], 3.0 * link.BaseRttS() + 2.0 * 0.005);
  }
  // Cross flow i loads hop i, wrapping past the last hop.
  ASSERT_EQ(episode.competitors.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(episode.competitors[i].path, (std::vector<int>{static_cast<int>(i % 3)}));
    EXPECT_EQ(episode.competitors[i].start_time_s, 0.0);
    EXPECT_EQ(episode.competitors[i].stop_time_s,
              std::numeric_limits<double>::infinity());
  }
}

TEST(EpisodeNetworkTest, ReversePathAgentsAckOverTheCompetitorsDataLink) {
  EpisodeSpec spec;
  spec.num_agents = 2;
  spec.topology.kind = TopologyKind::kReversePath;
  spec.competitor_schemes = {"cubic"};
  const LinkParams link = EpisodeTestLink();
  Rng rng(7);
  const EpisodeNetwork episode = BuildEpisodeNetwork(spec, link, &rng);

  ASSERT_EQ(episode.topology.links.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(episode.agents[i].path, (std::vector<int>{0}));
    EXPECT_EQ(episode.agents[i].ack_path, (std::vector<int>{1}));
    EXPECT_EQ(episode.agent_base_rtt_s[i], link.BaseRttS());
  }
  ASSERT_EQ(episode.competitors.size(), 1u);
  EXPECT_EQ(episode.competitors[0].path, (std::vector<int>{1}));
  EXPECT_TRUE(episode.competitors[0].ack_path.empty());
}

TEST(EpisodeNetworkTest, NLeafAgentsSumTheirOwnScaledPath) {
  EpisodeSpec spec;
  spec.num_agents = 5;
  spec.topology.kind = TopologyKind::kNLeafDumbbell;
  spec.topology.leaf_pairs = 3;
  spec.topology.link_scales = {LinkScale{0.5, 2.0, 1.0}};
  spec.agent_extra_delay_s = {0.0, 0.004};
  spec.competitor_schemes = {"cubic", "bbr"};
  const LinkParams link = EpisodeTestLink();
  Rng rng(8);
  const EpisodeNetwork episode = BuildEpisodeNetwork(spec, link, &rng);

  ASSERT_EQ(episode.topology.links.size(), 7u);  // bottleneck + 3 in + 3 out
  EXPECT_EQ(episode.topology.links[0].prop_delay_s, 2.0 * link.one_way_delay_s);
  for (size_t i = 0; i < 5; ++i) {
    const int pair = static_cast<int>(i % 3);
    const std::vector<int> path = {1 + pair, 0, 4 + pair};
    EXPECT_EQ(episode.agents[i].path, path);
    const double extra = i % 2 == 0 ? 0.0 : 0.004;
    EXPECT_EQ(episode.agent_base_rtt_s[i],
              PathPropRttS(episode.topology, path) + 2.0 * extra);
    // The path's own delays, not hops x the base link's RTT.
    EXPECT_NE(episode.agent_base_rtt_s[i], 3.0 * link.BaseRttS() + 2.0 * extra);
  }
  // Competitor i crosses end to end through leaf pair i.
  ASSERT_EQ(episode.competitors.size(), 2u);
  EXPECT_EQ(episode.competitors[0].path, (std::vector<int>{1, 0, 4}));
  EXPECT_EQ(episode.competitors[1].path, (std::vector<int>{2, 0, 5}));
}

TEST(EpisodeNetworkTest, RandomizedPhasesAreTwoDrawsFaultFirst) {
  EpisodeSpec spec;
  spec.fault.blackout_period_s = 4.0;
  spec.fault.blackout_duration_s = 0.5;
  spec.fault.randomize_phase = true;
  spec.wifi_jitter.burst_period_s = 0.7;
  spec.wifi_jitter.burst_duration_s = 0.1;
  spec.wifi_jitter.randomize_phase = true;
  Rng rng(9);
  Rng expected = rng;
  const EpisodeNetwork episode = BuildEpisodeNetwork(spec, EpisodeTestLink(), &rng);

  const double fault_phase = expected.Uniform(0.0, spec.fault.MaxPeriodS());
  const double jitter_phase = expected.Uniform(0.0, spec.wifi_jitter.MaxPeriodS());
  const LinkSpec& bottleneck = episode.topology.links[0];
  EXPECT_EQ(bottleneck.fault.phase_s, fault_phase);
  EXPECT_EQ(bottleneck.fault.blackout_period_s, 4.0);
  EXPECT_EQ(bottleneck.wifi_jitter.phase_s, jitter_phase);
  EXPECT_EQ(bottleneck.wifi_jitter.burst_period_s, 0.7);
  EXPECT_TRUE(SameRngPosition(rng, expected));
}

TEST(EpisodeNetworkTest, FixedPhaseSpecsLeaveTheRngUntouched) {
  EpisodeSpec spec;
  spec.fault.loss_burst_period_s = 8.0;
  spec.fault.loss_burst_duration_s = 1.0;
  spec.fault.loss_burst_rate = 0.2;
  spec.fault.phase_s = 0.25;
  spec.wifi_jitter.burst_period_s = 0.5;
  spec.wifi_jitter.burst_duration_s = 0.1;
  spec.wifi_jitter.phase_s = 0.125;
  Rng rng(10);
  const Rng before = rng;
  const EpisodeNetwork episode = BuildEpisodeNetwork(spec, EpisodeTestLink(), &rng);
  EXPECT_EQ(episode.topology.links[0].fault.phase_s, 0.25);
  EXPECT_EQ(episode.topology.links[0].wifi_jitter.phase_s, 0.125);
  EXPECT_TRUE(SameRngPosition(rng, before));

  // Disabled specs that still ask for a random phase are not drawn for either.
  EpisodeSpec disabled;
  disabled.fault.randomize_phase = true;
  disabled.wifi_jitter.burst_period_s = 0.5;  // zero duration: empty()
  disabled.wifi_jitter.randomize_phase = true;
  const EpisodeNetwork clean = BuildEpisodeNetwork(disabled, EpisodeTestLink(), &rng);
  EXPECT_TRUE(clean.topology.links[0].fault.empty());
  EXPECT_TRUE(clean.topology.links[0].wifi_jitter.empty());
  EXPECT_TRUE(SameRngPosition(rng, before));
}

TEST(ScenarioRolloutTest, VectorRolloutProducesPerAgentTrajectories) {
  MoccConfig config;
  Rng rng(3);
  PreferenceActorCritic model(config, &rng);
  PpoTrainer trainer(&model, config.MakePpoConfig(5));
  const Scenario* scenario = ScenarioRegistry::Global().Find("many-flow");
  ASSERT_NE(scenario, nullptr);
  auto env = scenario->MakeMultiFlowEnv(BaseEnvConfig(), 21);
  env->SetObjective(BalancedObjective());
  const auto buffers = trainer.CollectVectorRollout(env.get(), 48);
  ASSERT_EQ(buffers.size(), 8u);
  for (const RolloutBuffer& buffer : buffers) {
    ASSERT_EQ(buffer.size(), 48u);
    ASSERT_EQ(buffer.advantages.size(), 48u);
    ASSERT_EQ(buffer.returns.size(), 48u);
    for (const Transition& t : buffer.transitions) {
      EXPECT_EQ(t.observation.size(), env->ObservationDim());
      EXPECT_TRUE(std::isfinite(t.reward));
    }
  }
}

TEST(ScenarioRolloutTest, StaggeredArrivalsProduceNoPhantomTransitions) {
  // Agents that have not arrived yet must contribute no transitions: their buffers
  // start at the arrival step instead of carrying placeholder zero-reward data.
  MoccConfig config;
  Rng rng(11);
  PreferenceActorCritic model(config, &rng);
  PpoTrainer trainer(&model, config.MakePpoConfig(13));
  MultiFlowCcEnvConfig env_config;
  LinkParams link;
  link.bandwidth_bps = 12e6;
  link.one_way_delay_s = 0.02;  // base RTT 40 ms => 25 steps/s
  env_config.num_agents = 3;
  env_config.fixed_link = link;
  env_config.agent_stagger_s = 1.0;
  MultiFlowCcEnv env(env_config, 23);
  env.SetObjective(BalancedObjective());
  const auto buffers = trainer.CollectVectorRollout(&env, 120);
  ASSERT_EQ(buffers.size(), 3u);
  EXPECT_EQ(buffers[0].size(), 120u);
  EXPECT_LT(buffers[1].size(), buffers[0].size());
  EXPECT_LT(buffers[2].size(), buffers[1].size());
  EXPECT_GT(buffers[2].size(), 0u);
  for (const RolloutBuffer& buffer : buffers) {
    // Pre-arrival placeholder transitions would show up as long runs of exactly-zero
    // reward; post-arrival MIs essentially always earn some (loss/latency) reward.
    int zero_reward = 0;
    for (const Transition& t : buffer.transitions) {
      EXPECT_TRUE(std::isfinite(t.raw_reward));
      zero_reward += t.raw_reward == 0.0 ? 1 : 0;
    }
    EXPECT_LE(zero_reward, 2);
  }
}

// The acceptance-criterion determinism property: scenario rollouts (single-flow and
// shared-bottleneck mixed in one collection) are bit-identical whether the per-source
// tasks run serially on the calling thread or on the shared ThreadPool.
TEST(ScenarioRolloutTest, MixedScenarioCollectionSerialVsPoolBitIdentical) {
  auto collect = [](bool parallel) {
    MoccConfig mocc;
    Rng rng(7);
    PreferenceActorCritic model(mocc, &rng);
    PpoConfig ppo_config = mocc.MakePpoConfig(9);
    PpoTrainer trainer(&model, ppo_config);
    trainer.set_parallel_collection(parallel);

    std::string error;
    const auto scenarios = ScenarioRegistry::Global().ResolveList(
        "static,many-flow,vs-cubic,random-walk", &error);
    EXPECT_TRUE(scenarios.has_value()) << error;
    std::vector<std::unique_ptr<CcEnv>> single_envs;
    std::vector<std::unique_ptr<MultiFlowCcEnv>> multi_envs;
    std::vector<PpoTrainer::RolloutSource> sources;
    uint64_t seed = 100;
    for (const Scenario& scenario : *scenarios) {
      PpoTrainer::RolloutSource source;
      if (scenario.IsMultiFlow()) {
        multi_envs.push_back(scenario.MakeMultiFlowEnv(BaseEnvConfig(), seed));
        multi_envs.back()->SetObjective(BalancedObjective());
        source.vec = multi_envs.back().get();
      } else {
        single_envs.push_back(scenario.MakeSingleFlowEnv(BaseEnvConfig(), seed));
        single_envs.back()->SetObjective(BalancedObjective());
        source.env = single_envs.back().get();
      }
      sources.push_back(source);
      ++seed;
    }
    return trainer.CollectSourcesParallel(sources, 64);
  };
  const auto pool = collect(true);
  const auto serial = collect(false);
  ASSERT_EQ(pool.size(), serial.size());
  ASSERT_EQ(pool.size(), 1u + 8u + 2u + 1u);  // static + many-flow + vs-cubic + walk
  for (size_t b = 0; b < pool.size(); ++b) {
    ASSERT_EQ(pool[b].size(), serial[b].size());
    for (size_t i = 0; i < pool[b].size(); ++i) {
      ASSERT_EQ(pool[b].transitions[i].action, serial[b].transitions[i].action);
      ASSERT_EQ(pool[b].transitions[i].log_prob, serial[b].transitions[i].log_prob);
      ASSERT_EQ(pool[b].transitions[i].reward, serial[b].transitions[i].reward);
      ASSERT_EQ(pool[b].transitions[i].value, serial[b].transitions[i].value);
      ASSERT_EQ(pool[b].advantages[i], serial[b].advantages[i]);
      ASSERT_EQ(pool[b].returns[i], serial[b].returns[i]);
    }
  }
}

// Same determinism contract for the topology-general scenarios: parking-lot,
// reverse-path and hetero-rtt rollouts are bit-identical whether collected
// serially or on the shared ThreadPool.
TEST(ScenarioRolloutTest, TopologyScenarioCollectionSerialVsPoolBitIdentical) {
  auto collect = [](bool parallel) {
    MoccConfig mocc;
    Rng rng(19);
    PreferenceActorCritic model(mocc, &rng);
    PpoTrainer trainer(&model, mocc.MakePpoConfig(23));
    trainer.set_parallel_collection(parallel);

    std::string error;
    const auto scenarios = ScenarioRegistry::Global().ResolveList(
        "hetero-rtt,parking-lot,reverse-path", &error);
    EXPECT_TRUE(scenarios.has_value()) << error;
    std::vector<std::unique_ptr<MultiFlowCcEnv>> envs;
    std::vector<PpoTrainer::RolloutSource> sources;
    uint64_t seed = 200;
    for (const Scenario& scenario : *scenarios) {
      envs.push_back(scenario.MakeMultiFlowEnv(BaseEnvConfig(), seed++));
      envs.back()->SetObjective(BalancedObjective());
      PpoTrainer::RolloutSource source;
      source.vec = envs.back().get();
      sources.push_back(source);
    }
    return trainer.CollectSourcesParallel(sources, 48);
  };
  const auto pool = collect(true);
  const auto serial = collect(false);
  ASSERT_EQ(pool.size(), serial.size());
  ASSERT_EQ(pool.size(), 4u + 3u + 2u);  // hetero-rtt + parking-lot + reverse-path
  for (size_t b = 0; b < pool.size(); ++b) {
    ASSERT_EQ(pool[b].size(), serial[b].size());
    for (size_t i = 0; i < pool[b].size(); ++i) {
      ASSERT_EQ(pool[b].transitions[i].action, serial[b].transitions[i].action);
      ASSERT_EQ(pool[b].transitions[i].reward, serial[b].transitions[i].reward);
      ASSERT_EQ(pool[b].advantages[i], serial[b].advantages[i]);
      ASSERT_EQ(pool[b].returns[i], serial[b].returns[i]);
    }
  }
}

TEST(ScenarioTrainingTest, OfflineTrainerRunsTopologyScenariosEndToEnd) {
  // The acceptance path for the new catalog entries: OfflineTrainer --scenario
  // hetero-rtt,parking-lot,reverse-path must train (small budget) without NaNs,
  // proving the whole trainer->env->topology->event-engine stack end to end.
  OfflineTrainConfig config;
  config.seed = 47;
  config.bootstrap_iterations = 1;
  config.traversal_rounds = 0;
  config.parallel_envs = 3;
  config.mocc.landmark_step_divisor = 3;
  std::string error;
  const auto scenarios = ScenarioRegistry::Global().ResolveList(
      "hetero-rtt,parking-lot,reverse-path", &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  config.scenarios = *scenarios;

  Rng rng(config.seed);
  PreferenceActorCritic model(config.mocc, &rng);
  OfflineTrainer trainer(&model, config);
  const OfflineTrainResult result = trainer.TrainTwoPhase();
  EXPECT_EQ(result.total_iterations, 1);
  for (double reward : result.reward_curve) {
    EXPECT_TRUE(std::isfinite(reward));
  }
}

TEST(ScenarioTrainingTest, SingleSlotStillTrainsEveryObjectiveViaWaves) {
  // One slot, three bootstrap objectives: collection must run in waves so no
  // objective is dropped (the legacy single-env path's loop-over-objectives
  // semantics), and the scenario list must expand the slot allocation.
  OfflineTrainConfig config;
  config.seed = 29;
  config.bootstrap_iterations = 2;
  config.traversal_rounds = 0;
  config.parallel_envs = 1;
  config.mocc.landmark_step_divisor = 3;
  std::string error;
  config.scenarios = *ScenarioRegistry::Global().ResolveList("static", &error);
  ASSERT_EQ(config.bootstrap_objectives.size(), 3u);

  Rng rng(config.seed);
  PreferenceActorCritic model(config.mocc, &rng);
  OfflineTrainer trainer(&model, config);
  EXPECT_EQ(trainer.slot_count(), 1);
  const OfflineTrainResult result = trainer.TrainTwoPhase();
  EXPECT_EQ(result.total_iterations, 2);
  for (double reward : result.reward_curve) {
    EXPECT_TRUE(std::isfinite(reward));
  }

  // A scenario list longer than parallel_envs expands the slot allocation.
  config.scenarios =
      *ScenarioRegistry::Global().ResolveList("static,oscillating,vs-cubic", &error);
  Rng rng2(config.seed);
  PreferenceActorCritic model2(config.mocc, &rng2);
  OfflineTrainer trainer2(&model2, config);
  EXPECT_EQ(trainer2.slot_count(), 3);
}

TEST(HeterogeneousObjectiveTest, CatalogCarriesObjectivePlans) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  const Scenario* mixed = registry.Find("mixed-objective");
  ASSERT_NE(mixed, nullptr);
  EXPECT_TRUE(mixed->IsMultiFlow());
  EXPECT_TRUE(mixed->HasObjectivePlan());
  EXPECT_EQ(mixed->objectives.fixed.size(), 2u);
  EXPECT_TRUE(mixed->objectives.OverridesEpisodeWeights());

  const Scenario* sampled = registry.Find("sampled-objective");
  ASSERT_NE(sampled, nullptr);
  EXPECT_TRUE(sampled->objectives.sample_per_episode);
  EXPECT_TRUE(sampled->objectives.OverridesEpisodeWeights());

  const Scenario* sw = registry.Find("preference-switch");
  ASSERT_NE(sw, nullptr);
  ASSERT_EQ(sw->objectives.switches.size(), 1u);
  EXPECT_DOUBLE_EQ(sw->objectives.switches[0].time_s, 8.0);
  EXPECT_LT(sw->objectives.switches[0].agent, 0);  // every agent
  EXPECT_TRUE(sw->objectives.switches[0].to.AlmostEquals(LatencyObjective()));

  const Scenario* rtt = registry.Find("mixed-objective-rtt");
  ASSERT_NE(rtt, nullptr);
  EXPECT_EQ(rtt->agent_extra_delay_s.size(), 4u);
  EXPECT_EQ(rtt->objectives.fixed.size(), 4u);

  const Scenario* lot = registry.Find("mixed-objective-parking-lot");
  ASSERT_NE(lot, nullptr);
  EXPECT_EQ(lot->topology.kind, TopologyKind::kParkingLot);
  EXPECT_EQ(lot->objectives.fixed.size(), 3u);

  // Plan-less scenarios keep reporting no plan (the homogeneous default).
  EXPECT_FALSE(registry.Find("many-flow")->HasObjectivePlan());
}

TEST(HeterogeneousObjectiveTest, FixedMixesCycleOverAgentsAndOverrideSetObjective) {
  const Scenario* mixed = ScenarioRegistry::Global().Find("mixed-objective");
  ASSERT_NE(mixed, nullptr);
  auto env = mixed->MakeMultiFlowEnv(BaseEnvConfig(), 33);
  // The scenario owns its objectives: an external SetObjective call is overridden
  // by the plan on the next Reset.
  env->SetObjective(BalancedObjective());
  const auto obs = env->Reset();
  const WeightVector thr = ThroughputObjective().Sanitized();
  const WeightVector lat = LatencyObjective().Sanitized();
  ASSERT_EQ(obs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const WeightVector& expected = (i % 2 == 0) ? thr : lat;
    EXPECT_TRUE(env->agent_objective(i).AlmostEquals(expected)) << "agent " << i;
    // The preference prefix in the observation is the per-agent weight vector.
    EXPECT_DOUBLE_EQ(obs[static_cast<size_t>(i)][0], expected.thr) << "agent " << i;
    EXPECT_DOUBLE_EQ(obs[static_cast<size_t>(i)][1], expected.lat) << "agent " << i;
    EXPECT_DOUBLE_EQ(obs[static_cast<size_t>(i)][2], expected.loss) << "agent " << i;
  }
}

TEST(HeterogeneousObjectiveTest, PerEpisodeSamplingIsSeedReproducibleAndFloored) {
  const Scenario* sampled = ScenarioRegistry::Global().Find("sampled-objective");
  ASSERT_NE(sampled, nullptr);
  auto weights_of = [](MultiFlowCcEnv* env) {
    std::vector<WeightVector> weights;
    for (int i = 0; i < env->NumAgents(); ++i) {
      weights.push_back(env->agent_objective(i));
    }
    return weights;
  };
  auto env_a = sampled->MakeMultiFlowEnv(BaseEnvConfig(), 71);
  auto env_b = sampled->MakeMultiFlowEnv(BaseEnvConfig(), 71);
  auto env_c = sampled->MakeMultiFlowEnv(BaseEnvConfig(), 72);
  env_a->Reset();
  env_b->Reset();
  env_c->Reset();
  const auto first_a = weights_of(env_a.get());
  const auto first_b = weights_of(env_b.get());
  const auto first_c = weights_of(env_c.get());
  ASSERT_EQ(first_a.size(), 3u);
  bool all_equal_c = true;
  for (size_t i = 0; i < first_a.size(); ++i) {
    // Same seed -> bit-identical sampled objectives; they are real simplex points
    // inside the trained preference region.
    EXPECT_EQ(first_a[i].thr, first_b[i].thr) << i;
    EXPECT_EQ(first_a[i].lat, first_b[i].lat) << i;
    EXPECT_EQ(first_a[i].loss, first_b[i].loss) << i;
    EXPECT_TRUE(first_a[i].IsWithinFloor()) << first_a[i];
    all_equal_c = all_equal_c && first_a[i].AlmostEquals(first_c[i]);
  }
  EXPECT_FALSE(all_equal_c) << "different seeds must sample different objectives";
  // Every episode resamples (fresh preferences, still from the env's own stream).
  env_a->Reset();
  const auto second_a = weights_of(env_a.get());
  bool resampled = false;
  for (size_t i = 0; i < first_a.size(); ++i) {
    resampled = resampled || !first_a[i].AlmostEquals(second_a[i]);
  }
  EXPECT_TRUE(resampled) << "second episode must draw fresh objectives";
}

TEST(HeterogeneousObjectiveTest, ScheduledSwitchFlipsRewardWeightsAndObsPrefix) {
  const Scenario* scenario = ScenarioRegistry::Global().Find("preference-switch");
  ASSERT_NE(scenario, nullptr);
  auto env = scenario->MakeMultiFlowEnv(BaseEnvConfig(), 41);
  env->Reset();
  const WeightVector thr = ThroughputObjective().Sanitized();
  const WeightVector lat = LatencyObjective().Sanitized();
  const double switch_time_s = scenario->objectives.switches[0].time_s;
  std::vector<double> actions(2, 0.0);
  bool saw_pre_switch_step = false;
  while (env->now_s() < switch_time_s + 5.0 * env->step_duration_s()) {
    const bool pre_switch = env->now_s() < switch_time_s;
    if (pre_switch) {
      saw_pre_switch_step = true;
      EXPECT_EQ(env->applied_switch_count(), 0);
      EXPECT_TRUE(env->agent_objective(0).AlmostEquals(thr));
    }
    const VectorStepResult r = env->Step(actions);
    if (!pre_switch) {
      // The step whose monitor interval starts at/after the scheduled time — and
      // every later one — rewards and observes under the new preference.
      EXPECT_EQ(env->applied_switch_count(), 1);
      for (int i = 0; i < 2; ++i) {
        EXPECT_TRUE(env->agent_objective(i).AlmostEquals(lat)) << "agent " << i;
        EXPECT_DOUBLE_EQ(r.observations[static_cast<size_t>(i)][0], lat.thr);
        EXPECT_DOUBLE_EQ(r.observations[static_cast<size_t>(i)][1], lat.lat);
      }
    }
  }
  EXPECT_TRUE(saw_pre_switch_step);
  // The switch does not leak across episodes: Reset rewinds to the plan's base.
  env->Reset();
  EXPECT_EQ(env->applied_switch_count(), 0);
  EXPECT_TRUE(env->agent_objective(0).AlmostEquals(thr));
  EXPECT_TRUE(env->agent_objective(1).AlmostEquals(thr));
}

// The heterogeneous-objective determinism property: mixed-objective, scheduled-
// switch and per-episode-sampled scenarios collect bit-identically whether the
// per-source tasks run serially on the calling thread or on the shared ThreadPool
// (per-episode sampling draws from each env's own Rng, so scheduling cannot
// reorder the draws).
TEST(HeterogeneousObjectiveTest, MixedObjectiveCollectionSerialVsPoolBitIdentical) {
  auto collect = [](bool parallel) {
    MoccConfig mocc;
    Rng rng(29);
    PreferenceActorCritic model(mocc, &rng);
    PpoTrainer trainer(&model, mocc.MakePpoConfig(31));
    trainer.set_parallel_collection(parallel);

    std::string error;
    const auto scenarios = ScenarioRegistry::Global().ResolveList(
        "mixed-objective,preference-switch,sampled-objective", &error);
    EXPECT_TRUE(scenarios.has_value()) << error;
    std::vector<std::unique_ptr<MultiFlowCcEnv>> envs;
    std::vector<PpoTrainer::RolloutSource> sources;
    uint64_t seed = 300;
    for (const Scenario& scenario : *scenarios) {
      envs.push_back(scenario.MakeMultiFlowEnv(BaseEnvConfig(), seed++));
      PpoTrainer::RolloutSource source;
      source.vec = envs.back().get();
      sources.push_back(source);
    }
    return trainer.CollectSourcesParallel(sources, 48);
  };
  const auto pool = collect(true);
  const auto serial = collect(false);
  ASSERT_EQ(pool.size(), serial.size());
  ASSERT_EQ(pool.size(), 4u + 2u + 3u);  // mixed + switch + sampled
  for (size_t b = 0; b < pool.size(); ++b) {
    ASSERT_EQ(pool[b].size(), serial[b].size());
    for (size_t i = 0; i < pool[b].size(); ++i) {
      ASSERT_EQ(pool[b].transitions[i].action, serial[b].transitions[i].action);
      ASSERT_EQ(pool[b].transitions[i].reward, serial[b].transitions[i].reward);
      ASSERT_EQ(pool[b].advantages[i], serial[b].advantages[i]);
      ASSERT_EQ(pool[b].returns[i], serial[b].returns[i]);
      // The collected observations carry per-agent preference prefixes.
      ASSERT_EQ(pool[b].transitions[i].observation[0],
                serial[b].transitions[i].observation[0]);
    }
  }
}

TEST(HeterogeneousObjectiveTest, ObjectivePlanEnvsKeepDistinctPrefixesInRollouts) {
  // The trajectories feeding the joint PPO update really are heterogeneous: the
  // mixed-objective env's buffers carry each agent's own weight prefix.
  MoccConfig mocc;
  Rng rng(37);
  PreferenceActorCritic model(mocc, &rng);
  PpoTrainer trainer(&model, mocc.MakePpoConfig(39));
  const Scenario* mixed = ScenarioRegistry::Global().Find("mixed-objective");
  ASSERT_NE(mixed, nullptr);
  auto env = mixed->MakeMultiFlowEnv(BaseEnvConfig(), 43);
  const auto buffers = trainer.CollectVectorRollout(env.get(), 32);
  ASSERT_EQ(buffers.size(), 4u);
  const WeightVector thr = ThroughputObjective().Sanitized();
  const WeightVector lat = LatencyObjective().Sanitized();
  for (int i = 0; i < 4; ++i) {
    const WeightVector& expected = (i % 2 == 0) ? thr : lat;
    for (const Transition& t : buffers[static_cast<size_t>(i)].transitions) {
      ASSERT_DOUBLE_EQ(t.observation[0], expected.thr) << "agent " << i;
      ASSERT_DOUBLE_EQ(t.observation[1], expected.lat) << "agent " << i;
    }
  }
}

TEST(HeterogeneousObjectiveTest, OfflineTrainerRunsMixedObjectiveScenarios) {
  // The acceptance path: OfflineTrainer --scenario mixed-objective trains (small
  // budget), reproducibly, with the plan's heterogeneous weights intact — the
  // trainer's per-iteration objective assignment must not clobber the plan.
  OfflineTrainConfig config;
  config.seed = 61;
  config.bootstrap_iterations = 2;
  config.traversal_rounds = 0;
  config.parallel_envs = 2;
  config.mocc.landmark_step_divisor = 3;
  std::string error;
  const auto scenarios = ScenarioRegistry::Global().ResolveList(
      "mixed-objective,preference-switch", &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  config.scenarios = *scenarios;

  auto run = [&config] {
    Rng rng(config.seed);
    auto model = std::make_shared<PreferenceActorCritic>(config.mocc, &rng);
    OfflineTrainer trainer(model.get(), config);
    const OfflineTrainResult result = trainer.TrainTwoPhase();
    return std::make_pair(result, model);
  };
  const auto [result, model] = run();
  EXPECT_EQ(result.total_iterations, 2);
  for (double reward : result.reward_curve) {
    EXPECT_TRUE(std::isfinite(reward));
    EXPECT_GE(reward, 0.0);
    EXPECT_LE(reward, 1.0);
  }
  const auto [result2, model2] = run();
  ASSERT_EQ(result.reward_curve.size(), result2.reward_curve.size());
  for (size_t i = 0; i < result.reward_curve.size(); ++i) {
    EXPECT_EQ(result.reward_curve[i], result2.reward_curve[i]) << "iteration " << i;
  }
  std::vector<double> obs(config.mocc.ObsDim(), 0.2);
  EXPECT_EQ(model->ActionMean(obs), model2->ActionMean(obs));
}

TEST(ScenarioTrainingTest, OfflineTrainerRunsScenarioSampledIterations) {
  OfflineTrainConfig config;
  config.seed = 19;
  config.bootstrap_iterations = 2;
  config.traversal_rounds = 1;
  config.traversal_mix_objectives = 1;
  config.parallel_envs = 4;
  config.mocc.landmark_step_divisor = 3;  // smallest grid keeps the test fast
  std::string error;
  const auto scenarios =
      ScenarioRegistry::Global().ResolveList("static,flow-arrival,vs-cubic", &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  config.scenarios = *scenarios;

  auto run = [&config] {
    Rng rng(config.seed);
    auto model = std::make_shared<PreferenceActorCritic>(config.mocc, &rng);
    OfflineTrainer trainer(model.get(), config);
    const OfflineTrainResult result = trainer.TrainTwoPhase();
    return std::make_pair(result, model);
  };
  const auto [result, model] = run();
  EXPECT_EQ(result.total_iterations, config.PlannedIterations());
  ASSERT_EQ(result.reward_curve.size(), static_cast<size_t>(result.total_iterations));
  for (double reward : result.reward_curve) {
    EXPECT_TRUE(std::isfinite(reward));
    EXPECT_GE(reward, 0.0);
    EXPECT_LE(reward, 1.0);
  }
  // Scenario training is reproducible bit-for-bit under a fixed seed.
  const auto [result2, model2] = run();
  ASSERT_EQ(result.reward_curve.size(), result2.reward_curve.size());
  for (size_t i = 0; i < result.reward_curve.size(); ++i) {
    EXPECT_EQ(result.reward_curve[i], result2.reward_curve[i]) << "iteration " << i;
  }
  std::vector<double> obs(config.mocc.ObsDim(), 0.2);
  EXPECT_EQ(model->ActionMean(obs), model2->ActionMean(obs));
}

}  // namespace
}  // namespace mocc
