/**
 * @file
 * The benchmark's in-process half. Three sub-commands, each printing
 * one JSON object on its last line of standard output:
 *
 *   perfbench inputs  --workload=W --seed=N --dir=D
 *       Generate the workload's inputs from the seed into D: the
 *       suites' CSV files, requests.tsv (request body TAB the manifest
 *       line it expands to) and suites.tsv (registration manifests).
 *
 *   perfbench offline --workload=W --seed=N --seconds=S
 *       The untraced offline run (paper_sar, fleet_1000): set the
 *       suites up repeatedly, then run core::analyzeClusters +
 *       scoreAgainstClusters on one caller thread for S seconds.
 *
 *   perfbench trace   --workload=W --seed=N --seconds=S --dir=D
 *                     --histogram-samples=K
 *       The traced run: compose the analysis from the public calls of
 *       linalg, som, cluster and scoring and time each call; check the
 *       composition equals analyzeClusters + scoreAgainstClusters; then
 *       replay the workload's request bodies through the wire codec,
 *       manifest parse, fingerprint and engine cache, and time the
 *       store, drift and histogram calls the daemon makes per request.
 *
 * Spans are taken around calls into the library only; nothing inside
 * src/ is instrumented.
 */

#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "perfbench/common.h"
#include "src/cluster/agglomerative.h"
#include "src/core/characterization.h"
#include "src/core/pipeline.h"
#include "src/drift/monitor.h"
#include "src/engine/engine.h"
#include "src/engine/fingerprint.h"
#include "src/engine/manifest.h"
#include "src/engine/metrics.h"
#include "src/gen/family.h"
#include "src/gen/manifest.h"
#include "src/gen/registry.h"
#include "src/linalg/pca.h"
#include "src/scoring/score_report.h"
#include "src/server/wire_json.h"
#include "src/som/som.h"
#include "src/store/store.h"
#include "src/util/file.h"
#include "src/wire/wire.h"
#include "src/workload/machine.h"
#include "src/workload/paper_data.h"
#include "src/workload/sar_counters.h"
#include "src/workload/workload_profile.h"

namespace hm = hiermeans;
namespace fs = std::filesystem;
using namespace perfbench;

namespace {

/** One analysis input: characterized vectors plus the two machines' scores. */
struct Suite
{
    hm::core::CharacteristicVectors vectors;
    std::vector<double> scoresA;
    std::vector<double> scoresB;
    hm::core::PipelineConfig config;
    /** Planted ground truth; size() == 0 when the suite has none. */
    hm::scoring::Partition planted = hm::scoring::Partition::single(1);
    bool hasTruth = false;
};

/** Per-call timings of the input set-up (the set-up layers). */
struct SetupTimes
{
    double generateMs = 0.0;
    double characterizeMs = 0.0;
};

bool
isOffline(const std::string &workload)
{
    return workload == "paper_sar" || workload == "fleet_1000";
}

bool
isServing(const std::string &workload)
{
    return workload == "serve_hot" || workload == "serve_mixed";
}

/**
 * Suites per run. The work per suite depends on the data (surviving
 * counters, Jacobi sweeps, merge order), so a run cycles over several
 * suites drawn from its seed; one suite per run made the run-to-run
 * spread several times the bound. Fleet suites alternate two families
 * with 4 planted clusters.
 */
constexpr std::size_t kPaperSuites = 12;
constexpr std::size_t kFleetSuites = 8;
constexpr std::size_t kFleetWorkloads = 1000;
constexpr std::size_t kFleetClusters = 4;
/** ARI a recovered partition should reach (the ROADMAP floor). */
constexpr double kAriFloor = 0.8;

hm::gen::FamilyConfig
fleetConfig(std::uint64_t seed, std::size_t index)
{
    hm::gen::FamilyConfig config;
    config.kind = index % 2 == 0 ? hm::gen::FamilyKind::BigData
                                 : hm::gen::FamilyKind::SpecIntHistorical;
    config.seed = seed * 7919 + index;
    config.name = "fleet" + std::to_string(index);
    config.workloads = kFleetWorkloads;
    config.clusters = kFleetClusters;
    config.machines = 2;
    return config;
}

hm::workload::SarPanel
paperPanel(std::uint64_t seed, std::size_t index)
{
    hm::workload::SarConfig sar;
    sar.seed = seed * 7919 + index;
    return hm::workload::SarCounterSynthesizer(sar).collect(
        hm::workload::paperSuiteProfiles(), hm::workload::machineA());
}

std::vector<double>
column(const hm::linalg::Matrix &m, std::size_t c)
{
    std::vector<double> out(m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r)
        out[r] = m(r, c);
    return out;
}

/** Build the offline workload's suites, timing each set-up call. */
std::vector<Suite>
buildOfflineSuites(const std::string &workload, std::uint64_t seed,
                   SetupTimes &times)
{
    std::vector<Suite> suites;
    if (workload == "paper_sar") {
        for (std::size_t i = 0; i < kPaperSuites; ++i) {
            const auto t0 = Clock::now();
            const hm::workload::SarPanel panel = paperPanel(seed, i);
            const auto t1 = Clock::now();
            Suite suite;
            suite.vectors = hm::core::characterizeFromSar(panel);
            const auto t2 = Clock::now();
            suite.scoresA = hm::workload::paper::table3SpeedupsA();
            suite.scoresB = hm::workload::paper::table3SpeedupsB();
            times.generateMs += millisBetween(t0, t1);
            times.characterizeMs += millisBetween(t1, t2);
            suites.push_back(std::move(suite));
        }
        return suites;
    }
    for (std::size_t i = 0; i < kFleetSuites; ++i) {
        const auto t0 = Clock::now();
        const hm::gen::GeneratedSuite generated =
            hm::gen::generateSuite(fleetConfig(seed, i));
        const auto t1 = Clock::now();
        Suite suite;
        suite.vectors = hm::core::characterizeFromMica(
            generated.features, generated.workloadNames());
        const auto t2 = Clock::now();
        suite.scoresA = column(generated.scores, 1);
        suite.scoresB = column(generated.scores, 0);
        suite.config.autoSizeSom(generated.profiles.size());
        suite.planted = generated.planted;
        suite.hasTruth = true;
        times.generateMs += millisBetween(t0, t1);
        times.characterizeMs += millisBetween(t1, t2);
        suites.push_back(std::move(suite));
    }
    return suites;
}

/** The four generated suites the serving workloads score. */
std::vector<hm::gen::GeneratedSuite>
servingSuites(std::uint64_t seed)
{
    std::vector<hm::gen::GeneratedSuite> suites;
    const auto &families = hm::gen::familyNames();
    for (std::size_t i = 0; i < families.size(); ++i) {
        hm::gen::FamilyConfig config = hm::gen::defaultConfig(
            hm::gen::familyFromName(families[i]), seed * 7919 + i);
        config.name = "s" + std::to_string(i);
        suites.push_back(hm::gen::generateSuite(config));
    }
    return suites;
}

/** Digest of a run's analyses: every partition label and report value,
 *  so a later change can show bit-identical outputs. */
void
digestResult(Digest &digest, const hm::core::ClusterAnalysis &analysis,
             const hm::scoring::ScoreReport &report)
{
    for (const auto &partition : analysis.partitions)
        for (const std::size_t label : partition.labels())
            digest.mix(static_cast<std::uint64_t>(label));
    for (const auto &row : report.rows) {
        digest.mix(row.scoreA);
        digest.mix(row.scoreB);
        digest.mix(row.ratio);
    }
    digest.mix(report.plainA);
    digest.mix(report.plainB);
}

/** ARI of the sweep's partition at the planted cluster count. */
double
recoveryAri(const Suite &suite, const hm::core::ClusterAnalysis &analysis)
{
    for (const auto &partition : analysis.partitions)
        if (partition.clusterCount() == suite.planted.clusterCount())
            return hm::scoring::adjustedRandIndex(partition, suite.planted);
    return 0.0;
}

/**
 * Whether the sweep holds cuts of one dendrogram: a partition of every
 * workload for each k from kMin up, each nested in the one before it.
 * Any correct agglomerative clustering passes, whatever its merge
 * order or tie-breaking.
 */
bool
sweepIsNested(const Suite &suite, const hm::core::ClusterAnalysis &analysis)
{
    const std::size_t n = suite.vectors.features.rows();
    const auto &sweep = analysis.partitions;
    if (sweep.empty())
        return false;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (sweep[i].size() != n ||
            sweep[i].clusterCount() != suite.config.kMin + i)
            return false;
        if (i == 0)
            continue;
        std::vector<std::size_t> parent(sweep[i].clusterCount(), n);
        for (std::size_t r = 0; r < n; ++r) {
            std::size_t &p = parent[sweep[i].labels()[r]];
            if (p == n)
                p = sweep[i - 1].labels()[r];
            else if (p != sweep[i - 1].labels()[r])
                return false;
        }
    }
    return true;
}

// --- inputs -------------------------------------------------------------

void
writeCsvs(const std::string &dir, const std::vector<std::string> &names,
          const std::vector<std::string> &features,
          const hm::linalg::Matrix &values,
          const std::vector<std::string> &machines,
          const std::vector<std::vector<double>> &scores)
{
    fs::create_directories(dir);
    std::ostringstream f;
    f << "workload";
    for (const auto &name : features)
        f << ',' << name;
    f << '\n';
    for (std::size_t r = 0; r < names.size(); ++r) {
        f << names[r];
        for (std::size_t c = 0; c < values.cols(); ++c)
            f << ',' << hm::gen::formatDouble(values(r, c));
        f << '\n';
    }
    hm::util::writeFile(dir + "/features.csv", f.str());
    std::ostringstream s;
    s << "workload";
    for (const auto &machine : machines)
        s << ',' << machine;
    s << '\n';
    for (std::size_t r = 0; r < names.size(); ++r) {
        s << names[r];
        for (const auto &col : scores)
            s << ',' << hm::gen::formatDouble(col[r]);
        s << '\n';
    }
    hm::util::writeFile(dir + "/scores.csv", s.str());
}

int
cmdInputs(const std::string &workload, std::uint64_t seed,
          const std::string &dir)
{
    fs::create_directories(dir);
    std::ostringstream requests, registrations;
    if (isOffline(workload)) {
        // The offline suites, served as ad-hoc manifest lines (the
        // traced run's serving pass).
        if (workload == "paper_sar") {
            for (std::size_t i = 0; i < kPaperSuites; ++i) {
                const hm::workload::SarPanel panel = paperPanel(seed, i);
                std::vector<std::string> names;
                for (const auto &run : panel.runs)
                    names.push_back(run.workload);
                const std::string name = "paper" + std::to_string(i);
                const std::string sub = dir + "/" + name;
                writeCsvs(sub, names, panel.counterNames, panel.averaged(),
                          {"A", "B"},
                          {hm::workload::paper::table3SpeedupsA(),
                           hm::workload::paper::table3SpeedupsB()});
                const std::string line =
                    "id=" + name + " scores=" + sub +
                    "/scores.csv features=" + sub +
                    "/features.csv machine-a=A machine-b=B";
                requests << line << '\t' << line << '\n';
            }
        } else {
            for (std::size_t i = 0; i < kFleetSuites; ++i) {
                const hm::gen::GeneratedSuite suite =
                    hm::gen::generateSuite(fleetConfig(seed, i));
                const std::string sub = dir + "/" + suite.name;
                fs::create_directories(sub);
                const hm::gen::SuiteArtifacts art =
                    hm::gen::renderArtifacts(suite, sub);
                hm::util::writeFile(sub + "/scores.csv", art.scoresCsv);
                hm::util::writeFile(sub + "/features.csv",
                                    art.featuresCsv);
                for (const auto &line : art.manifestLines)
                    requests << line << '\t' << line << '\n';
            }
        }
    } else {
        const bool byReference = workload == "serve_mixed";
        for (const auto &suite : servingSuites(seed)) {
            const std::string sub = dir + "/" + suite.name;
            fs::create_directories(sub);
            const hm::gen::SuiteArtifacts art =
                hm::gen::renderArtifacts(suite, sub);
            hm::util::writeFile(sub + "/scores.csv", art.scoresCsv);
            hm::util::writeFile(sub + "/features.csv", art.featuresCsv);
            hm::util::writeFile(sub + "/manifest.txt", art.manifestText);
            hm::util::writeFile(sub + "/truth.csv", art.truthCsv);
            registrations << suite.name << '\t' << sub << "/manifest.txt\n";
            for (std::size_t k = 0; k < art.manifestLines.size(); ++k) {
                const std::string body =
                    byReference ? "suite=" + suite.name +
                                      " line=" + std::to_string(k + 1)
                                : art.manifestLines[k];
                requests << body << '\t' << art.manifestLines[k] << '\n';
            }
        }
    }
    hm::util::writeFile(dir + "/requests.tsv", requests.str());
    hm::util::writeFile(dir + "/suites.tsv", registrations.str());
    std::cout << JsonObject().str("dir", dir).render() << std::endl;
    return 0;
}

// --- offline --------------------------------------------------------------

int
cmdOffline(const std::string &workload, std::uint64_t seed, double seconds)
{
    // Set-ups run five times before the analysis and then once per
    // 0.5 s of it, so their median samples the same machine states as
    // the analysis: on a shared host the speed drifts over seconds.
    std::vector<double> setups;
    const auto setUp = [&] {
        SetupTimes times;
        const auto t0 = Clock::now();
        std::vector<Suite> built = buildOfflineSuites(workload, seed, times);
        setups.push_back(millisBetween(t0, Clock::now()) / 1000.0);
        return built;
    };
    const std::vector<Suite> suites = setUp();
    for (int i = 1; i < 5; ++i)
        setUp();

    std::vector<double> suiteMs;
    std::vector<std::vector<double>> perSuiteMs(suites.size());
    std::vector<std::string> digests(suites.size());
    std::vector<double> aris;
    bool correct = true;
    double analysisMs = 0.0;
    auto lastSetUp = Clock::now();
    for (std::size_t i = 0;; ++i) {
        const Suite &suite = suites[i % suites.size()];
        const auto t0 = Clock::now();
        const hm::core::ClusterAnalysis analysis =
            hm::core::analyzeClusters(suite.vectors, suite.config);
        const hm::scoring::ScoreReport report =
            hm::core::scoreAgainstClusters(analysis,
                                           hm::stats::MeanKind::Geometric,
                                           suite.scoresA, suite.scoresB);
        const auto t1 = Clock::now();
        suiteMs.push_back(millisBetween(t0, t1));
        perSuiteMs[i % suites.size()].push_back(suiteMs.back());
        analysisMs += suiteMs.back();

        // Same input, same bytes: every repeat must match the first,
        // so the output checks run on the first.
        Digest digest;
        digestResult(digest, analysis, report);
        std::string &first = digests[i % suites.size()];
        if (first.empty()) {
            first = digest.hex();
            if (!sweepIsNested(suite, analysis) || report.rows.empty())
                correct = false;
            if (suite.hasTruth)
                aris.push_back(recoveryAri(suite, analysis));
        } else if (first != digest.hex()) {
            correct = false;
        }
        if (analysisMs >= seconds * 1000.0 && i + 1 >= suites.size())
            break;
        if (millisBetween(lastSetUp, Clock::now()) >= 500.0) {
            setUp();
            lastSetUp = Clock::now();
        }
    }
    // The tail is the slowest suite's median: a change that slows one
    // kind of input shows even when a run has too few suites for a
    // high percentile.
    double slowestSuiteMs = 0.0;
    for (const auto &samples : perSuiteMs)
        slowestSuiteMs = std::max(slowestSuiteMs, median(samples));
    // The ARI floor: at n = 1000 complete linkage on the map's grid
    // positions splits a planted cluster in about 1.5% of suites (ARI
    // down to ~0.76), so a run fails when more than a quarter of its
    // suites miss the floor, not on the first miss.
    const std::size_t floorMisses = static_cast<std::size_t>(
        std::count_if(aris.begin(), aris.end(),
                      [](double ari) { return ari < kAriFloor; }));
    if (4 * floorMisses > aris.size())
        correct = false;

    std::string digestList = "[";
    for (std::size_t i = 0; i < digests.size(); ++i)
        digestList += (i ? ",\"" : "\"") + digests[i] + "\"";
    digestList += "]";

    JsonObject out;
    out.boolean("correct", correct)
        .num("attempted", static_cast<double>(suiteMs.size()))
        .num("setup_s", median(setups))
        .num("suites_per_s", 1000.0 * suiteMs.size() / analysisMs)
        .num("suite_ms_p50", median(suiteMs))
        .num("suite_ms_tail", slowestSuiteMs)
        .num("peak_rss_mb", peakRssMib())
        .num("suites", static_cast<double>(suiteMs.size()))
        .num("setups", static_cast<double>(setups.size()))
        .raw("digests", digestList);
    if (!aris.empty())
        out.num("recovery_ari", *std::min_element(aris.begin(), aris.end()))
            .num("recovery_ari_p50", median(aris))
            .num("recovery_floor_misses", static_cast<double>(floorMisses));
    std::cout << out.render() << std::endl;
    return 0;
}

// --- trace ----------------------------------------------------------------

/** Time one call in milliseconds. */
template <typename F>
double
timeMs(F &&f)
{
    const auto t0 = Clock::now();
    f();
    return millisBetween(t0, Clock::now());
}

/** Median per-call time of @p f over at least @p minCalls calls and
 *  about @p budgetMs of wall time, in the unit @p scale converts ms to. */
template <typename F>
double
perCall(F &&f, double budgetMs, std::size_t minCalls, double scale)
{
    std::vector<double> samples;
    const auto start = Clock::now();
    while (samples.size() < minCalls ||
           millisBetween(start, Clock::now()) < budgetMs) {
        samples.push_back(timeMs(f) * scale);
        if (samples.size() >= 200000)
            break;
    }
    return median(samples);
}

/** The analysis suites of a serving workload: what the daemon's
 *  pipeline runs for the first line of each suite. */
std::vector<Suite>
servingAnalysisSuites(const std::vector<std::string> &lines)
{
    std::vector<Suite> suites;
    hm::engine::CsvCache csvs;
    const hm::util::CommandLine defaults =
        hm::util::CommandLine::parse({"hmserved"});
    std::string lastFeatures;
    for (const auto &text : lines) {
        const auto parsed = hm::engine::parseManifest(text);
        const std::string features =
            parsed.front().flags.getString("features", "");
        if (features == lastFeatures)
            continue; // one analysis per suite.
        lastFeatures = features;
        const hm::engine::ScoreRequest request =
            hm::engine::buildManifestRequest(parsed.front(), defaults, csvs);
        Suite suite;
        suite.vectors = hm::core::characterizeRaw(
            request.features, request.workloads, request.featureNames);
        suite.scoresA = request.scoresA;
        suite.scoresB = request.scoresB;
        suite.config = request.config;
        suite.config.som.seed = request.seed;
        suites.push_back(std::move(suite));
    }
    return suites;
}

std::vector<std::pair<std::string, std::string>>
readRequests(const std::string &dir)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::istringstream in(hm::util::readFile(dir + "/requests.tsv"));
    std::string row;
    while (std::getline(in, row)) {
        const std::size_t tab = row.find('\t');
        if (tab != std::string::npos)
            out.emplace_back(row.substr(0, tab), row.substr(tab + 1));
    }
    return out;
}

/** The served document of a result (the daemon's resultDocument). */
hm::wire::ScoreDocument
documentOf(const hm::engine::ScoreResult &result)
{
    hm::wire::ScoreDocument doc;
    doc.id = result.id;
    doc.servedBy = result.cacheHit ? "cache" : "pipeline";
    doc.fingerprint = result.fingerprint;
    doc.recommendedK = result.recommendedK;
    doc.ratio = result.report.rows[result.report.recommendedRow()].ratio;
    doc.plainRatio = result.report.plainRatio;
    doc.wallMillis = result.wallMillis;
    for (const auto &row : result.report.rows)
        doc.rows.push_back({static_cast<std::uint32_t>(row.clusterCount),
                            row.scoreA, row.scoreB, row.ratio});
    return doc;
}

int
cmdTrace(const std::string &workload, std::uint64_t seed, double seconds,
         const std::map<std::string, std::string> &args)
{
    const std::string dir = args.at("dir");
    const std::size_t histogramSamples =
        std::stoull(args.at("histogram-samples"));
    const double budgetMs = seconds * 1000.0;
    const auto requests = readRequests(dir);
    std::vector<std::string> lines;
    for (const auto &r : requests)
        lines.push_back(r.second);

    // Set-up layers, on this workload's own inputs: at least 5 set-ups
    // and about 1.5 s of them.
    std::vector<double> generateMs, characterizeMs;
    std::vector<Suite> suites;
    const auto setUpStart = Clock::now();
    for (int i = 0; i < 5 || millisBetween(setUpStart, Clock::now()) < 1500.0;
         ++i) {
        if (isOffline(workload)) {
            SetupTimes times;
            suites = buildOfflineSuites(workload, seed, times);
            generateMs.push_back(times.generateMs);
            characterizeMs.push_back(times.characterizeMs);
        } else {
            std::vector<hm::gen::GeneratedSuite> generated;
            generateMs.push_back(
                timeMs([&] { generated = servingSuites(seed); }));
            characterizeMs.push_back(timeMs([&] {
                for (const auto &g : generated)
                    hm::core::characterizeFromMica(g.features,
                                                   g.workloadNames());
            }));
        }
    }
    if (isServing(workload))
        suites = servingAnalysisSuites(lines);

    // The reference results the composition must reproduce.
    std::vector<hm::core::ClusterAnalysis> reference;
    std::vector<hm::scoring::ScoreReport> referenceReports;
    for (const auto &suite : suites) {
        reference.push_back(
            hm::core::analyzeClusters(suite.vectors, suite.config));
        referenceReports.push_back(hm::core::scoreAgainstClusters(
            reference.back(), hm::stats::MeanKind::Geometric,
            suite.scoresA, suite.scoresB));
    }

    // Analysis layers: alternate an untimed-inside pipeline with the
    // composed one, so both see the same machine state.
    std::map<std::string, std::vector<double>> layer;
    std::vector<double> plainMs, composedMs;
    bool same = true;
    const auto analysisStart = Clock::now();
    while (plainMs.size() < 3 ||
           millisBetween(analysisStart, Clock::now()) < 0.6 * budgetMs) {
        double plain = 0.0, composed = 0.0;
        std::map<std::string, double> sum;
        for (std::size_t s = 0; s < suites.size(); ++s) {
            const Suite &suite = suites[s];
            const hm::linalg::Matrix &x = suite.vectors.features;
            plain += timeMs([&] {
                const auto analysis =
                    hm::core::analyzeClusters(suite.vectors, suite.config);
                hm::core::scoreAgainstClusters(
                    analysis, hm::stats::MeanKind::Geometric,
                    suite.scoresA, suite.scoresB);
            });

            const auto c0 = Clock::now();
            std::optional<hm::som::SelfOrganizingMap> map;
            sum["som.init_ms"] += timeMs([&] {
                map.emplace(hm::som::SelfOrganizingMap::initialize(
                    x, suite.config.som));
            });
            sum["som.train_ms"] +=
                timeMs([&] { map->trainToCompletion(); });
            hm::linalg::Matrix positions;
            sum["som.map_ms"] += timeMs([&] {
                map->bmuAll(x);
                positions = map->mapAll(x);
            });
            std::optional<hm::cluster::Dendrogram> dendrogram;
            sum["cluster.agglomerate_ms"] += timeMs([&] {
                dendrogram.emplace(hm::cluster::agglomerate(
                    positions, suite.config.linkage, suite.config.metric));
            });
            std::vector<hm::scoring::Partition> partitions;
            sum["cluster.sweep_ms"] += timeMs([&] {
                partitions = dendrogram->partitionSweep(
                    suite.config.kMin,
                    std::min(suite.config.kMax, x.rows()));
            });
            hm::scoring::ScoreReport report;
            sum["scoring.report_ms"] += timeMs([&] {
                report = hm::scoring::buildScoreReport(
                    hm::stats::MeanKind::Geometric, suite.scoresA,
                    suite.scoresB, partitions);
            });
            composed += millisBetween(c0, Clock::now());

            // Off the blocking path: the PCA fit initialize() makes,
            // and single BMU lookups.
            sum["linalg.pca_fit_ms"] +=
                timeMs([&] { hm::linalg::Pca::fit(x); });
            double bmu = 0.0;
            for (std::size_t r = 0; r < x.rows(); ++r) {
                const hm::linalg::Vector row = x.row(r);
                bmu += timeMs([&] { map->bestMatchingUnit(row); });
            }
            sum["som.bmu_us"] += bmu * 1000.0 / x.rows();

            same = same && partitions == reference[s].partitions &&
                   report.rows.size() == referenceReports[s].rows.size();
            for (std::size_t r = 0; same && r < report.rows.size(); ++r)
                same = report.rows[r].ratio ==
                       referenceReports[s].rows[r].ratio;
        }
        for (const auto &[name, total] : sum)
            layer[name].push_back(total / suites.size());
        plainMs.push_back(plain / suites.size());
        composedMs.push_back(composed / suites.size());
    }

    JsonObject out;
    for (const auto &[name, samples] : layer)
        out.num(name, median(samples));
    const double plain = median(plainMs);
    double attributed = 0.0;
    for (const char *name :
         {"som.init_ms", "som.train_ms", "som.map_ms",
          "cluster.agglomerate_ms", "cluster.sweep_ms",
          "scoring.report_ms"})
        attributed += median(layer[name]);
    out.num("core.characterize_ms", median(characterizeMs))
        .num("gen.generate_ms", median(generateMs))
        .num("trace.suite_ms_p50", plain)
        .num("trace.unattributed_share", 1.0 - attributed / plain)
        .num("trace.overhead_share", median(composedMs) / plain - 1.0);

    // Request path: the workload's own request bodies through the
    // codec, the manifest parse, the fingerprint and the engine cache.
    const double pathBudget = 0.25 * budgetMs / requests.size();
    hm::engine::CsvCache csvs;
    const hm::util::CommandLine defaults =
        hm::util::CommandLine::parse({"hmserved"});
    hm::engine::ScoringEngine::Config engineConfig;
    engineConfig.threads = 1;
    hm::engine::ScoringEngine engine(engineConfig);
    std::map<std::string, std::vector<double>> path;
    std::vector<hm::engine::ScoreResult> results;
    for (const auto &line : lines) {
        const std::string frame = hm::wire::encodeScoreRequest(line);
        path["wire.decode_us"].push_back(perCall(
            [&] { hm::wire::decodeScoreRequest(frame); }, pathBudget / 6,
            50, 1000.0));
        hm::engine::ScoreRequest request;
        path["engine.parse_us"].push_back(perCall(
            [&] {
                const auto parsed = hm::engine::parseManifest(line);
                request = hm::engine::buildManifestRequest(
                    parsed.front(), defaults, csvs);
            },
            pathBudget / 6, 20, 1000.0));
        path["engine.fingerprint_us"].push_back(perCall(
            [&] { hm::engine::fingerprintRequest(request); },
            pathBudget / 6, 20, 1000.0));
        hm::engine::ScoreResult result = engine.submit(request).get();
        if (!result.ok)
            throw std::runtime_error("trace: request failed: " +
                                     result.error);
        std::vector<double> hits;
        const auto hitStart = Clock::now();
        while (hits.size() < 20 ||
               millisBetween(hitStart, Clock::now()) < pathBudget / 6) {
            hm::engine::ScoreRequest copy = request;
            hits.push_back(1000.0 * timeMs([&] {
                                const auto hit =
                                    engine.submit(std::move(copy)).get();
                                same = same && hit.cacheHit;
                            }));
        }
        path["engine.cache_hit_us"].push_back(median(hits));
        const hm::wire::ScoreDocument doc = documentOf(result);
        path["wire.encode_report_us"].push_back(perCall(
            [&] { hm::wire::encodeScoreReport(doc); }, pathBudget / 6, 50,
            1000.0));
        path["wire.render_json_us"].push_back(perCall(
            [&] { hm::server::scoreDocumentJson(doc); }, pathBudget / 6,
            50, 1000.0));
        results.push_back(std::move(result));
    }
    for (const auto &[name, samples] : path)
        out.num(name, median(samples));

    // Durable writes: the record an observe (or a pipeline execution)
    // appends, under hmserved's default policy (fsync every record,
    // snapshot every 256), then the drift fold the daemon runs after
    // each observe.
    const std::string storeDir = dir + "/trace_store";
    fs::remove_all(storeDir);
    hm::store::StateStore::Config storeConfig;
    storeConfig.dataDir = storeDir;
    std::vector<double> recordUs, absorbUs;
    std::uint64_t walBytes = 0;
    {
        hm::store::StateStore store(storeConfig);
        store.open();
        const std::string suiteName = "trace";
        store.registerSuite(suiteName, lines.front() + "\n");
        hm::drift::DriftMonitor monitor(hm::drift::DriftMonitor::Config{},
                                        &store);
        const auto storeStart = Clock::now();
        for (std::size_t i = 0;
             i < 64 || millisBetween(storeStart, Clock::now()) <
                           0.15 * budgetMs;
             ++i) {
            const hm::engine::ScoreResult &result =
                results[i % results.size()];
            hm::store::ScoreRecord record;
            record.suite = suiteName;
            record.suiteVersion = 1;
            record.id = result.id;
            record.fingerprint = result.fingerprint + i;
            record.recommendedK = result.recommendedK;
            record.ratio = documentOf(result).ratio;
            record.plainRatio = result.report.plainRatio;
            record.wallMillis = result.wallMillis;
            if (i % 2 == 0)
                record.report = result.report; // a pipeline execution.
            recordUs.push_back(1000.0 * timeMs([&] {
                                   same = store.recordScore(record) && same;
                               }));
            absorbUs.push_back(
                1000.0 * timeMs([&] { monitor.absorb(suiteName); }));
        }
        walBytes = store.metrics().walBytes;
        store.close();
    }
    fs::remove_all(storeDir);
    out.num("store.record_score_us", median(recordUs))
        .num("store.wal_bytes_per_record",
             static_cast<double>(walBytes) / recordUs.size())
        .num("drift.absorb_us", median(absorbUs));

    // Latency histogram at the sample count the serving run reached.
    {
        hm::engine::LatencyHistogram histogram;
        std::vector<double> values(histogramSamples);
        std::uint64_t state = seed | 1;
        for (auto &v : values) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            v = 0.05 + static_cast<double>(state >> 40) / (1 << 24);
        }
        const double recordMs = timeMs([&] {
            for (const double v : values)
                histogram.record(v);
        });
        const std::vector<double> bounds = {0.5, 1,   2.5,  5,    10,
                                            25,  50,  100,  250,  500,
                                            1000, 2500, 5000, 10000};
        const double percentileMs = perCall(
            [&] {
                histogram.cumulativeCounts(bounds);
                histogram.percentile(99.0);
                histogram.record(1.0); // a scrape re-sorts after a record.
            },
            0.05 * budgetMs, 3, 1.0);
        out.num("obs.record_ns", recordMs * 1e6 / values.size())
            .num("obs.percentile_ms", percentileMs)
            .num("obs.histogram_samples", static_cast<double>(values.size()));
    }
    out.boolean("correct", same);
    std::cout << out.render() << std::endl;
    return same ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: perfbench inputs|offline|trace --workload=W "
                     "--seed=N [--seconds=S] [--dir=D]\n";
        return 2;
    }
    try {
        const std::string command = argv[1];
        const auto args = parseArgs(argc, argv, 2);
        const std::string workload = args.at("workload");
        if (!isOffline(workload) && !isServing(workload))
            throw std::runtime_error("unknown workload " + workload);
        const std::uint64_t seed = std::stoull(args.at("seed"));
        const double seconds =
            args.count("seconds") ? std::stod(args.at("seconds")) : 1.0;
        if (command == "inputs")
            return cmdInputs(workload, seed, args.at("dir"));
        if (command == "offline" && isOffline(workload))
            return cmdOffline(workload, seed, seconds);
        if (command == "trace")
            return cmdTrace(workload, seed, seconds, args);
        throw std::runtime_error("unknown command " + command);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
