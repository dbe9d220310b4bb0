// The content-addressed campaign cache (DESIGN.md §13): canonical JobSpec
// hashing, store/fetch/materialize round trips, LRU eviction by logical
// tick, corrupted-entry quarantine (a damaged cache degrades to misses and
// warnings, never to crashes or wrong results), concurrent writers, the
// planner's dry run, the pair-payload decoder under hostile input, and
// the end-to-end guarantee the whole subsystem exists for: a warm-cache
// campaign reduces to results byte-identical to the cold run, at any
// worker count.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "common/build_info.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "lint/lint.h"
#include "regress/baseline.h"
#include "regress/config_file.h"
#include "regress/job_spec.h"
#include "regress/runner.h"
#include "verif/tests.h"

namespace crve {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
  std::string sub(const std::string& leaf) const {
    return (path / leaf).string();
  }
};

stbus::NodeConfig cfg32() {
  stbus::NodeConfig cfg;
  cfg.name = "node_a";
  cfg.n_initiators = 3;
  cfg.n_targets = 2;
  cfg.bus_bytes = 4;
  cfg.type = stbus::ProtocolType::kType2;
  cfg.arch = stbus::Architecture::kFullCrossbar;
  cfg.arb = stbus::ArbPolicy::kLru;
  return cfg;
}

regress::RunPlan small_plan() {
  regress::RunPlan plan;
  plan.cfg = cfg32();
  plan.tests = {verif::t02_random_all_opcodes(), verif::t05_chunked_traffic()};
  plan.seeds = {1, 2};
  plan.n_transactions = 30;
  return plan;
}

std::string read_file(const fs::path& p) {
  std::ifstream is(p);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// --- SHA-256 ---------------------------------------------------------------

TEST(Sha256, Fips180KnownVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                       "nopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(h.digest_hex(), sha256_hex("hello world"));
  // A long input exercising the 64-byte block buffering.
  std::string big(100000, 'x');
  Sha256 h2;
  for (std::size_t i = 0; i < big.size(); i += 7) {
    h2.update(big.substr(i, 7));
  }
  EXPECT_EQ(h2.digest_hex(), sha256_hex(big));
}

// --- JobSpec canonical form and hashing ------------------------------------

TEST(JobSpec, HashIsStableAndCoversEveryInput) {
  const regress::RunPlan plan = small_plan();
  const auto spec = regress::job_spec_for(plan, plan.tests[0], 1);
  EXPECT_EQ(spec.hash(), spec.hash());
  EXPECT_EQ(spec.hash().size(), 64u);
  EXPECT_EQ(spec.hash(), sha256_hex(spec.canonical_json()));
  // The effective transaction count is resolved into the spec.
  EXPECT_EQ(spec.n_transactions, 30);

  // Every constituent of the job moves the key.
  auto mutated = [&spec]() { return spec; };
  {
    auto m = mutated();
    m.seed = 2;
    EXPECT_NE(m.hash(), spec.hash());
  }
  {
    auto m = mutated();
    m.config_text += "# trailing tweak\n";
    EXPECT_NE(m.hash(), spec.hash());
  }
  {
    auto m = mutated();
    m.n_transactions = 31;
    EXPECT_NE(m.hash(), spec.hash());
  }
  {
    auto m = mutated();
    m.git_hash = "deadbeef";
    EXPECT_NE(m.hash(), spec.hash());
  }
  {
    auto m = mutated();
    m.sanitize = !m.sanitize;
    EXPECT_NE(m.hash(), spec.hash());
  }
  {
    auto m = mutated();
    m.faults.push_back("grant_during_lock");
    EXPECT_NE(m.hash(), spec.hash());
  }
  {
    auto m = mutated();
    m.alignment_threshold = 0.995;
    EXPECT_NE(m.hash(), spec.hash());
  }
}

TEST(JobSpec, ConfigContentNotNameIsHashed) {
  regress::RunPlan plan = small_plan();
  const auto a = regress::job_spec_for(plan, plan.tests[0], 1);
  // Same config under a different name: the name is part of the canonical
  // config serialization, so the key moves — two directories with
  // different names never collide on artifacts.
  plan.cfg.name = "node_renamed";
  const auto b = regress::job_spec_for(plan, plan.tests[0], 1);
  EXPECT_NE(a.hash(), b.hash());
  // A semantic config change moves it too.
  plan.cfg.name = "node_a";
  plan.cfg.arb = stbus::ArbPolicy::kRoundRobin;
  const auto c = regress::job_spec_for(plan, plan.tests[0], 1);
  EXPECT_NE(a.hash(), c.hash());
}

TEST(JobSpec, FaultCatalogueRoundTrips) {
  bca::Faults f;
  EXPECT_TRUE(regress::fault_names(f).empty());
  EXPECT_TRUE(regress::set_fault_by_name(f, "grant_during_lock"));
  EXPECT_TRUE(regress::set_fault_by_name(f, "byte_enable_dropped"));
  EXPECT_FALSE(regress::set_fault_by_name(f, "no_such_fault"));
  const auto names = regress::fault_names(f);
  ASSERT_EQ(names.size(), 2u);
  // Sorted for canonical serialization.
  EXPECT_EQ(names[0], "byte_enable_dropped");
  EXPECT_EQ(names[1], "grant_during_lock");
  // Every catalogue name sets back the fault it names.
  bca::Faults g;
  for (const auto& n : names) EXPECT_TRUE(regress::set_fault_by_name(g, n));
  EXPECT_EQ(regress::fault_names(g), names);
}

TEST(JobSpec, SpecFileRoundTrips) {
  const regress::RunPlan plan = small_plan();
  std::vector<regress::JobSpec> specs;
  specs.push_back(regress::job_spec_for(plan, plan.tests[0], 1));
  specs.push_back(regress::job_spec_for(plan, plan.tests[1], 2));
  const std::string text = regress::format_job_specs(specs);
  const json::Value doc = json::parse(text);
  EXPECT_EQ(doc.number_or("version", 0.0), 1.0);
  const json::Value* jobs = doc.find("jobs");
  ASSERT_TRUE(jobs && jobs->is_array());
  EXPECT_EQ(jobs->items.size(), 2u);
  // Each job is written as its spec's canonical form, one to a line, so it
  // hashes to the spec's cache key.
  std::vector<std::string> written;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("    {", 0) != 0) continue;
    if (line.back() == ',') line.pop_back();
    written.push_back(line.substr(4));
  }
  ASSERT_EQ(written.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(written[i], specs[i].canonical_json()) << i;
    EXPECT_EQ(sha256_hex(written[i]), specs[i].hash()) << i;
  }
  // Nothing to simulate is an empty job list.
  EXPECT_EQ(regress::format_job_specs({}),
            "{\n  \"version\": 1,\n  \"jobs\": []\n}\n");
}

// --- Cache store semantics -------------------------------------------------

TEST(Cache, StoreFetchMaterializeRoundTrip) {
  TempDir tmp("crve_cache_roundtrip");
  cache::CacheOptions opts;
  opts.dir = tmp.sub("cache");
  cache::Cache c(opts);

  const std::string key = sha256_hex("job-1");
  EXPECT_FALSE(c.contains(key));
  EXPECT_FALSE(c.fetch(key).has_value());  // miss
  EXPECT_EQ(c.stats().misses, 1u);

  // Artifact next to the payload.
  const std::string art = tmp.sub("triage_t.json");
  std::ofstream(art) << "{\"windows\": []}";
  c.store(key, "{\"payload\": true}", {{"triage_t.json", art}});
  EXPECT_TRUE(c.contains(key));
  EXPECT_EQ(c.stats().stores, 1u);
  EXPECT_EQ(c.entry_count(), 1u);
  EXPECT_GT(c.total_bytes(), 0u);

  const auto payload = c.fetch(key);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"payload\": true}");
  EXPECT_EQ(c.stats().hits, 1u);

  const std::string dst = tmp.sub("restored");
  const auto names = c.materialize(key, dst);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "triage_t.json");
  EXPECT_EQ(read_file(fs::path(dst) / "triage_t.json"), "{\"windows\": []}");

  // Storing an existing key is a no-op (first writer wins).
  c.store(key, "{\"payload\": false}", {});
  EXPECT_EQ(*c.fetch(key), "{\"payload\": true}");

  EXPECT_FALSE(cache::Cache::valid_key("short"));
  EXPECT_FALSE(cache::Cache::valid_key(std::string(64, 'G')));
  EXPECT_TRUE(cache::Cache::valid_key(key));
}

TEST(Cache, PersistsAcrossInstancesAndIndexLoss) {
  TempDir tmp("crve_cache_persist");
  cache::CacheOptions opts;
  opts.dir = tmp.sub("cache");
  const std::string key = sha256_hex("durable");
  const std::string payload = "{\"p\": \"durable-bytes\"}";
  {
    cache::Cache c(opts);
    c.store(key, payload, {});
  }
  {
    cache::Cache c(opts);
    EXPECT_EQ(c.fetch(key).value_or(""), payload);
  }
  // The index is advisory: deleting it loses LRU order, never entries.
  fs::remove(fs::path(opts.dir) / "index.json");
  {
    cache::Cache c(opts);
    EXPECT_EQ(c.fetch(key).value_or(""), payload);
  }
}

TEST(Cache, LruEvictionByLogicalTick) {
  TempDir tmp("crve_cache_lru");
  cache::CacheOptions opts;
  opts.dir = tmp.sub("cache");
  // ~1KiB payloads against a budget that holds roughly two entries: the
  // third store must evict the least-recently-used key.
  opts.max_bytes = 3000;
  cache::Cache c(opts);
  const std::string k1 = sha256_hex("k1");
  const std::string k2 = sha256_hex("k2");
  const std::string k3 = sha256_hex("k3");
  const std::string kilo = "{\"pad\": \"" + std::string(1200, 'p') + "\"}";
  c.store(k1, kilo, {});
  c.store(k2, kilo, {});
  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_TRUE(c.fetch(k1).has_value());
  c.store(k3, kilo, {});
  EXPECT_GE(c.stats().evictions, 1u);
  EXPECT_TRUE(c.contains(k1));
  EXPECT_FALSE(c.contains(k2));
  EXPECT_TRUE(c.contains(k3));
  EXPECT_LE(c.total_bytes(), opts.max_bytes);
}

TEST(Cache, CorruptedPayloadQuarantinesAsMissNeverCrashes) {
  TempDir tmp("crve_cache_corrupt");
  cache::CacheOptions opts;
  opts.dir = tmp.sub("cache");
  cache::Cache c(opts);
  const std::string key = sha256_hex("fragile");
  c.store(key, "{\"ok\": true}", {});

  // Truncate the payload mid-token, as a crashed writer or bad disk would.
  const fs::path entry = fs::path(opts.dir) / "objects" / key.substr(0, 2) /
                         key / "payload.json";
  ASSERT_TRUE(fs::exists(entry));
  std::ofstream(entry, std::ios::trunc) << "{\"ok\": tr";

  EXPECT_FALSE(c.fetch(key).has_value());  // miss, not a crash
  EXPECT_GE(c.stats().quarantined, 1u);
  EXPECT_FALSE(c.contains(key));
  // The damaged entry moved aside rather than vanishing (forensics).
  EXPECT_TRUE(fs::exists(fs::path(opts.dir) / "quarantine"));
  // The key is storable again afterwards.
  c.store(key, "{\"ok\": true}", {});
  EXPECT_TRUE(c.fetch(key).has_value());
}

TEST(Cache, ManifestNamingMissingFileQuarantines) {
  TempDir tmp("crve_cache_manifest");
  cache::CacheOptions opts;
  opts.dir = tmp.sub("cache");
  cache::Cache c(opts);
  const std::string key = sha256_hex("gap");
  const std::string art = tmp.sub("a.txt");
  std::ofstream(art) << "x";
  c.store(key, "{}", {{"a.txt", art}});
  fs::remove(fs::path(opts.dir) / "objects" / key.substr(0, 2) / key /
             "files" / "a.txt");
  EXPECT_FALSE(c.fetch(key).has_value());
  EXPECT_GE(c.stats().quarantined, 1u);
}

TEST(Cache, ConcurrentWritersConverge) {
  TempDir tmp("crve_cache_race");
  cache::CacheOptions opts;
  opts.dir = tmp.sub("cache");
  // Several threads, each with its own Cache instance (as separate
  // processes would be), storing an overlapping key range.
  constexpr int kThreads = 4;
  constexpr int kKeys = 12;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&opts, t] {
      cache::Cache c(opts);
      for (int k = 0; k < kKeys; ++k) {
        const std::string key = sha256_hex("key" + std::to_string(k));
        c.store(key, "{\"k\": " + std::to_string(k) + "}", {});
        (void)t;
      }
    });
  }
  for (auto& th : threads) th.join();
  cache::Cache c(opts);
  EXPECT_EQ(c.entry_count(), static_cast<std::uint64_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = sha256_hex("key" + std::to_string(k));
    EXPECT_EQ(c.fetch(key).value_or(""), "{\"k\": " + std::to_string(k) + "}")
        << k;
  }
}

// --- Warm-cache campaigns --------------------------------------------------

// Field-level equality of the deterministic slice of two results, plus the
// timing-free JSON modulo the cached-provenance markers.
void expect_same_numbers(const regress::RegressionResult& a,
                         const regress::RegressionResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& oa = a.outcomes[i];
    const auto& ob = b.outcomes[i];
    EXPECT_EQ(oa.test, ob.test) << i;
    EXPECT_EQ(oa.seed, ob.seed) << i;
    EXPECT_EQ(oa.model, ob.model) << i;
    EXPECT_EQ(oa.result.completed, ob.result.completed) << i;
    EXPECT_EQ(oa.result.cycles, ob.result.cycles) << i;
    EXPECT_EQ(oa.result.evaluations, ob.result.evaluations) << i;
    EXPECT_EQ(oa.result.checker_violations, ob.result.checker_violations);
    EXPECT_EQ(oa.result.scoreboard_errors, ob.result.scoreboard_errors);
    EXPECT_EQ(oa.result.coverage_digest, ob.result.coverage_digest) << i;
    EXPECT_DOUBLE_EQ(oa.result.coverage_percent, ob.result.coverage_percent);
    // wall_ms replays from the payload, so even the timed report is stable.
    EXPECT_DOUBLE_EQ(oa.wall_ms, ob.wall_ms) << i;
  }
  ASSERT_EQ(a.alignments.size(), b.alignments.size());
  for (std::size_t i = 0; i < a.alignments.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.alignments[i].report.min_rate(),
                     b.alignments[i].report.min_rate())
        << i;
    EXPECT_DOUBLE_EQ(a.alignments[i].wall_ms, b.alignments[i].wall_ms) << i;
  }
  EXPECT_EQ(a.signed_off, b.signed_off);
  EXPECT_DOUBLE_EQ(a.min_alignment, b.min_alignment);
  EXPECT_DOUBLE_EQ(a.mean_coverage_rtl, b.mean_coverage_rtl);
}

TEST(CampaignCache, WarmRunReplaysEverythingByteIdentical) {
  TempDir tmp("crve_cache_warm");
  regress::RunPlan plan = small_plan();
  plan.cache_dir = tmp.sub("cache");
  plan.out_dir = tmp.sub("cold");
  plan.jobs = 1;
  const auto cold = regress::Regression::run(plan);
  EXPECT_TRUE(cold.signed_off) << cold.summary();
  EXPECT_EQ(cold.cached_pairs, 0u);

  // Warm rerun at jobs=1 and jobs=4: zero simulations (every pair is
  // replayed) and the same numbers, including the replayed wall times.
  plan.out_dir = tmp.sub("warm1");
  const auto warm1 = regress::Regression::run(plan);
  EXPECT_EQ(warm1.cached_pairs, 4u);
  expect_same_numbers(cold, warm1);
  for (const auto& o : warm1.outcomes) EXPECT_TRUE(o.cached);
  for (const auto& a : warm1.alignments) EXPECT_TRUE(a.cached);
  EXPECT_FALSE(warm1.cache_build_json.empty());

  plan.out_dir = tmp.sub("warm4");
  plan.jobs = 4;
  const auto warm4 = regress::Regression::run(plan);
  EXPECT_EQ(warm4.cached_pairs, 4u);
  // Two warm runs are byte-identical timing-free documents, and even the
  // per-job wall times match (they replay from the payloads); only the
  // campaign-elapsed top-level wall_ms is fresh each run.
  EXPECT_EQ(warm1.json(/*with_timing=*/false),
            warm4.json(/*with_timing=*/false));
  expect_same_numbers(warm1, warm4);

  // Against the cold run the only JSON delta is the cached provenance.
  std::string warm_doc = warm1.json(/*with_timing=*/false);
  std::string cold_doc = cold.json(/*with_timing=*/false);
  EXPECT_NE(warm_doc.find("\"cached\": true"), std::string::npos);
  EXPECT_NE(warm_doc.find("\"cache\": {"), std::string::npos);
  EXPECT_EQ(cold_doc.find("\"cached\""), std::string::npos);
  EXPECT_EQ(cold_doc.find("\"cache\""), std::string::npos);

  // Replay re-materializes the manifest artifacts but not the bulk waves.
  EXPECT_TRUE(fs::exists(
      fs::path(tmp.sub("warm1")) / "report_t02_random_all_opcodes_s1_rtl.txt"));
  EXPECT_TRUE(fs::exists(
      fs::path(tmp.sub("warm1")) / "alignment_t02_random_all_opcodes_s1.txt"));
  EXPECT_FALSE(fs::exists(
      fs::path(tmp.sub("warm1")) / "t02_random_all_opcodes_s1_rtl.vcd"));
}

TEST(CampaignCache, MatrixWarmRunCountsHitsAndNoMisses) {
  TempDir tmp("crve_cache_matrix");
  regress::RunPlan base = small_plan();
  base.tests = {verif::t02_random_all_opcodes()};
  base.cache_dir = tmp.sub("cache");
  base.jobs = 2;
  const std::vector<stbus::NodeConfig> configs = {cfg32()};

  const auto cold = regress::Regression::run_matrix(configs, base);
  const auto cold_stats = json::parse(cold.cache_stats_json);
  EXPECT_EQ(cold_stats.number_or("hits", -1), 0.0);
  EXPECT_EQ(cold_stats.number_or("misses", -1), 2.0);
  EXPECT_EQ(cold_stats.number_or("stores", -1), 2.0);

  const auto warm = regress::Regression::run_matrix(configs, base);
  const auto warm_stats = json::parse(warm.cache_stats_json);
  EXPECT_EQ(warm_stats.number_or("hits", -1), 2.0);
  EXPECT_EQ(warm_stats.number_or("misses", -1), 0.0);
  ASSERT_EQ(warm.results.size(), 1u);
  EXPECT_EQ(warm.results[0].cached_pairs, 2u);
  expect_same_numbers(cold.results[0], warm.results[0]);
}

TEST(CampaignCache, FaultedRunsKeyedSeparately) {
  TempDir tmp("crve_cache_faults");
  regress::RunPlan plan = small_plan();
  plan.tests = {verif::t02_random_all_opcodes()};
  plan.seeds = {1};
  plan.cache_dir = tmp.sub("cache");
  const auto clean = regress::Regression::run(plan);
  EXPECT_EQ(clean.cached_pairs, 0u);
  // Same matrix with a fault injected: different key, so no replay of the
  // clean run's results.
  plan.faults.byte_enable_dropped = true;
  const auto faulted = regress::Regression::run(plan);
  EXPECT_EQ(faulted.cached_pairs, 0u);
  // And each flavour replays itself.
  EXPECT_EQ(regress::Regression::run(plan).cached_pairs, 1u);
  plan.faults = bca::Faults{};
  EXPECT_EQ(regress::Regression::run(plan).cached_pairs, 1u);
}

TEST(CampaignCache, UndecodablePayloadInvalidatesAndReruns) {
  TempDir tmp("crve_cache_stale");
  regress::RunPlan plan = small_plan();
  plan.tests = {verif::t02_random_all_opcodes()};
  plan.seeds = {1};
  plan.cache_dir = tmp.sub("cache");
  const auto cold = regress::Regression::run(plan);
  EXPECT_TRUE(cold.signed_off);

  // Overwrite the entry's payload with parseable-but-wrong-schema JSON, as
  // a format bump would leave behind. The planner must invalidate it and
  // re-run the pair rather than crash or replay garbage.
  const fs::path objects = fs::path(plan.cache_dir) / "objects";
  int rewritten = 0;
  for (const auto& e : fs::recursive_directory_iterator(objects)) {
    if (e.is_regular_file() && e.path().filename() == "payload.json") {
      std::ofstream(e.path(), std::ios::trunc) << "{\"version\": 99}";
      ++rewritten;
    }
  }
  ASSERT_EQ(rewritten, 1);
  const auto rerun = regress::Regression::run(plan);
  EXPECT_EQ(rerun.cached_pairs, 0u);
  EXPECT_TRUE(rerun.signed_off);
  // The re-run stored a fresh entry; the next run replays it.
  EXPECT_EQ(regress::Regression::run(plan).cached_pairs, 1u);
}

// --- Planner dry run --------------------------------------------------------

TEST(CampaignCache, PlanColdRunPlanRoundTrip) {
  TempDir tmp("crve_cache_plan");
  regress::RunPlan base = small_plan();
  base.cache_dir = tmp.sub("cache");
  const std::vector<stbus::NodeConfig> configs = {cfg32()};

  // Plan against an empty cache: everything is missing.
  const auto plan0 = regress::Regression::plan_matrix(configs, base);
  EXPECT_EQ(plan0.total_pairs, 4u);
  EXPECT_EQ(plan0.cached_pairs, 0u);
  ASSERT_EQ(plan0.missing.size(), 4u);

  // The cold campaign simulates and stores exactly the planned pairs,
  // under the keys the plan listed.
  const auto cold = regress::Regression::run_matrix(configs, base);
  EXPECT_EQ(cold.results[0].cached_pairs, 0u);
  EXPECT_TRUE(cold.all_signed_off);
  {
    cache::CacheOptions opts;
    opts.dir = base.cache_dir;
    cache::Cache store(opts);
    for (const auto& js : plan0.missing) EXPECT_TRUE(store.contains(js.hash()));
  }

  // Re-planning now finds a fully warmed cache, and the warm campaign
  // replays every pair.
  const auto plan1 = regress::Regression::plan_matrix(configs, base);
  EXPECT_EQ(plan1.total_pairs, 4u);
  EXPECT_EQ(plan1.cached_pairs, 4u);
  EXPECT_TRUE(plan1.missing.empty());
  const auto warm = regress::Regression::run_matrix(configs, base);
  EXPECT_EQ(warm.results[0].cached_pairs, 4u);
  EXPECT_TRUE(warm.all_signed_off);
}

// --- Pair payload decoder: a cache entry is outside input -------------------

// The payload the runner stores for one clean aligned pair.
std::string real_payload() {
  // One directory per test: ctest runs the tests of this suite at once.
  TempDir tmp(std::string("crve_cache_payload_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name());
  regress::RunPlan plan = small_plan();
  plan.tests = {verif::t02_random_all_opcodes()};
  plan.seeds = {1};
  plan.cache_dir = tmp.sub("cache");
  regress::Regression::run(plan);
  for (const auto& e : fs::recursive_directory_iterator(plan.cache_dir)) {
    if (e.path().filename() == "payload.json") return read_file(e.path());
  }
  ADD_FAILURE() << "no payload stored";
  return "";
}

// `text` with the value of the first `"key": ` member replaced.
std::string with_value(std::string text, const std::string& key,
                       const std::string& value) {
  const std::size_t at = text.find("\"" + key + "\": ");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no member " << key;
    return text;
  }
  const std::size_t begin = at + key.size() + 4;
  const std::size_t end = text.find_first_of(",}\n", begin);
  return text.replace(begin, end - begin, value);
}

void expect_rejected(const std::string& text, const std::string& key,
                     const std::string& value) {
  try {
    regress::decode_pair_result(with_value(text, key, value));
    ADD_FAILURE() << "accepted " << key << ": " << value;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("pair payload: '" + key + "'"),
              std::string::npos)
        << e.what();
  }
}

TEST(PairPayload, AcceptsOnlyJsonHexForSixtyFourBitValues) {
  const std::string payload = real_payload();
  ASSERT_NO_THROW(regress::decode_pair_result(payload));
  EXPECT_EQ(regress::decode_pair_result(
                with_value(payload, "cycles", "\"0x1f\""))
                .rtl.result.cycles,
            0x1fu);
  for (const char* bad :
       {"\"zz\"", "\"\"", "\"0x\"", "\"1f\"", "\"0X1f\"", "\"0x1F\"",
        "\"0x01f\"", "\"0x1g\"", "\" 0x1f\"", "\"0x1f \"",
        "\"0x10000000000000000\"", "31", "-1", "1e300"}) {
    expect_rejected(payload, "cycles", bad);
  }
}

TEST(PairPayload, AcceptsOnlyBooleansForFlags) {
  const std::string payload = real_payload();
  for (const char* bad : {"1", "0", "\"true\"", "null"}) {
    expect_rejected(payload, "completed", bad);
  }
}

TEST(PairPayload, AcceptsOnlyVersionOne) {
  const std::string payload = real_payload();
  for (const char* bad : {"1.5", "0.5", "2", "\"1\"", "1e300", "-1e300"}) {
    expect_rejected(payload, "version", bad);
  }
}

bool same_json(const json::Value& a, const json::Value& b) {
  if (a.kind != b.kind || a.boolean != b.boolean || a.num != b.num ||
      a.str != b.str || a.items.size() != b.items.size() ||
      a.members.size() != b.members.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    if (!same_json(a.items[i], b.items[i])) return false;
  }
  for (std::size_t i = 0; i < a.members.size(); ++i) {
    if (a.members[i].first != b.members[i].first ||
        !same_json(a.members[i].second, b.members[i].second)) {
      return false;
    }
  }
  return true;
}

// Seeded sweep over a real payload: every truncation and random byte
// flips. Each input either throws std::runtime_error or decodes to a
// result that encodes back to the same document (the same members in the
// same order with equal values; whitespace and the spelling of a decimal
// number are not payload content). Under ASan/UBSan no input may reach
// undefined behaviour on the way.
TEST(PairPayload, TruncatedAndFlippedPayloadsDecodeExactlyOrThrow) {
  const std::string payload = real_payload();
  std::vector<std::string> inputs;
  for (std::size_t n = 0; n < payload.size(); ++n) {
    inputs.push_back(payload.substr(0, n));
  }
  Rng rng(27);
  for (int i = 0; i < 4000; ++i) {
    std::string s = payload;
    s[rng.index(s.size())] ^= static_cast<char>(rng.range(1, 255));
    inputs.push_back(std::move(s));
  }
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    regress::PairResult pr;
    try {
      pr = regress::decode_pair_result(inputs[i]);
    } catch (const std::runtime_error&) {
      continue;
    }
    ++decoded;
    const json::Value doc = json::parse(inputs[i]);
    const std::string again =
        regress::encode_pair_result(pr, doc.find("spec_hash")->str);
    EXPECT_TRUE(same_json(doc, json::parse(again))) << "input " << i;
  }
  // Both outcomes occur: the sweep is not vacuous either way.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, inputs.size());
}

// --- Baseline differ: cache provenance is a note, not drift ----------------

TEST(CampaignCache, DifferTreatsProvenanceAsNote) {
  TempDir tmp("crve_cache_drift");
  regress::RunPlan base = small_plan();
  base.tests = {verif::t02_random_all_opcodes()};
  base.seeds = {1};
  base.cache_dir = tmp.sub("cache");
  const std::vector<stbus::NodeConfig> configs = {cfg32()};
  const auto cold = regress::Regression::run_matrix(configs, base);
  const auto warm = regress::Regression::run_matrix(configs, base);
  ASSERT_EQ(warm.results[0].cached_pairs, 1u);

  const auto cold_doc = json::parse(cold.json(/*with_timing=*/false));
  const auto warm_doc = json::parse(warm.json(/*with_timing=*/false));
  const auto drift =
      regress::compute_drift(cold_doc, warm_doc, regress::DriftThresholds{});
  EXPECT_TRUE(drift.ok()) << drift.summary();
  EXPECT_TRUE(drift.findings.empty()) << drift.summary();
  bool noted = false;
  for (const auto& n : drift.notes) {
    if (n.find("cache provenance") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << drift.summary();
}

// --- CRVE060: sanitizer build probing an uninstrumented cache --------------

TEST(CampaignCache, Crve060FlagsUninstrumentedEntries) {
  TempDir tmp("crve_cache_lint");
  const std::string dir = tmp.sub("cache");
  fs::create_directories(dir);
  std::ofstream(fs::path(dir) / "index.json")
      << "{\n  \"version\": 1,\n  \"next_tick\": 3,\n  \"entries\": [\n"
         "    {\"key\": \"" << std::string(64, 'a')
      << "\", \"bytes\": 10, \"tick\": 1, \"git_hash\": \"abc\", "
         "\"sanitize\": false},\n"
         "    {\"key\": \"" << std::string(64, 'b')
      << "\", \"bytes\": 10, \"tick\": 2, \"git_hash\": \"abc\", "
         "\"sanitize\": true}\n  ]\n}\n";

  // Sanitized build, uninstrumented entries present: one warning.
  const auto rep = lint::lint_cache_provenance(dir, /*build_sanitized=*/true);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].rule_id, "CRVE060");
  EXPECT_EQ(rep.findings[0].severity, lint::Severity::kWarn);
  EXPECT_NE(rep.findings[0].message.find("1 of 2"), std::string::npos);
  EXPECT_EQ(rep.exit_code(), 1);  // warn, never an error

  // The rule is in the catalogue with warn severity.
  const lint::Rule* rule = lint::find_rule("CRVE060");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->severity, lint::Severity::kWarn);

  // Uninstrumented build: clean — the hazard is one-directional.
  EXPECT_TRUE(
      lint::lint_cache_provenance(dir, /*build_sanitized=*/false)
          .findings.empty());
  // Missing cache directory: clean.
  EXPECT_TRUE(lint::lint_cache_provenance(tmp.sub("nowhere"), true)
                  .findings.empty());
  // Corrupt index: clean (the cache reconciles its own corruption).
  std::ofstream(fs::path(dir) / "index.json", std::ios::trunc) << "{broken";
  EXPECT_TRUE(lint::lint_cache_provenance(dir, true).findings.empty());
}

}  // namespace
}  // namespace crve
