/**
 * @file
 * Tail-latency isolation across tenants (ISSUE 8). A flood tenant dumps
 * a deep backlog at cycle 0 while a victim tenant submits a light,
 * paced trickle of small jobs — the canonical noisy-neighbour shape.
 * The harness replays the *identical* admitted sequence under each
 * scheduling policy (FIFO, strict priority, SJF, WFQ) plus a victim-
 * only isolated baseline, and reports the victim's p50/p95/p99
 * end-to-end latency in simulated cycles.
 *
 * Headline: weighted fair queuing holds the victim's p99 within a
 * small factor of the isolated baseline while FIFO — which makes the
 * victim wait out the entire flood backlog — blows it up by orders of
 * magnitude. Both ends are gated:
 *
 *  - GATE: WFQ victim p99 <= 3x the isolated baseline p99.
 *  - GATE: FIFO victim p99 > WFQ victim p99 (the flood must actually
 *    hurt under FIFO, or the scenario is too easy to mean anything).
 *
 * Determinism: every policy is a pure function of simulated state, so
 * in --smoke mode the FIFO and WFQ points are replayed across host
 * thread counts and the RTL-batch backend and fenced bit-for-bit on
 * per-job (enqueue, admitted, completed, arm, retire, tenant) tuples.
 *
 * Flags:
 *  --smoke         short CI configuration + determinism crosscheck.
 *  --json PATH     write per-policy results as JSON (BENCH_TENANT.json).
 *  --baseline PATH compare victim p99 per policy against a previous
 *                  JSON; exact match required, nonzero exit on drift.
 *  --threads N     host worker threads (0 = one per hardware thread).
 *  --backend B     fast | rtl | rtlinterp | rtljit
 *                  (system/pu_backend.h; rtl* are cycle-accurate).
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <fstream>

#include "bench_common.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "system/pu_backend.h"

using namespace fleet;

namespace {

struct RunOptions
{
    bool smoke = false;
    std::string jsonPath;
    std::string baselinePath;
    int threads = 0;
    std::string backendName = "fast";
    system::PuBackend backend = system::PuBackend::Fast;
};

struct BenchShape
{
    int slots = 8;
    int channels = 2;
    uint64_t regionBytes = 4096;
    uint64_t victimJobs = 24;
    uint64_t floodJobs = 120;
    uint64_t victimBytes = 96;
    uint64_t floodBytes = 768;
    uint64_t victimInterarrival = 1500;
};

struct PolicyResult
{
    std::string label;
    bool isolated = false;
    uint64_t victimServed = 0;
    uint64_t floodServed = 0;
    uint64_t victimP50 = 0, victimP95 = 0, victimP99 = 0;
    double victimMeanWait = 0;
    uint64_t floodP99 = 0;
    uint64_t simCycles = 0;
    double simWallS = 0;
    /** Per-job simulated tuples in job-id order — the determinism
     * fence (host wall fields deliberately absent). */
    std::vector<std::array<uint64_t, 6>> signature;
};

uint64_t
percentile(const std::vector<uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    size_t rank = static_cast<size_t>(q * double(sorted.size()));
    if (rank >= sorted.size())
        rank = sorted.size() - 1;
    return sorted[rank];
}

serve::ServiceConfig
serviceConfig(const RunOptions &opts, const BenchShape &shape,
              runtime::SchedulerPolicy policy)
{
    serve::ServiceConfig config;
    config.session.system.numChannels = shape.channels;
    config.session.system.numThreads = opts.threads;
    config.session.system.inputRegionBytes = shape.regionBytes;
    config.session.system.backend = opts.backend;
    config.session.numSlots = shape.slots;
    // Small epochs: latency percentiles are quantized to the round
    // length, so finer rounds resolve the victim's tail.
    config.session.epochCycles = 256;
    config.session.scheduler.policy = policy;
    // Victim (tenant 1) outweighs the flood 4:1 under WFQ.
    config.session.scheduler.weights = {{0, 1}, {1, 4}};
    config.maxQueueDepth = 1u << 20; // nothing is turned away
    config.policy = serve::AdmissionPolicy::Reject;
    config.backgroundThread = false; // paced: deterministic pacing
    return config;
}

/** One policy point: the flood backlog lands at cycle 0, the victim
 * trickle is released on its seeded schedule; with `isolated` the
 * flood is withheld (the baseline the gates compare against). */
PolicyResult
runPolicy(const apps::Application &app, const RunOptions &opts,
          const BenchShape &shape, const char *label,
          runtime::SchedulerPolicy policy, bool isolated)
{
    PolicyResult result;
    result.label = label;
    result.isolated = isolated;

    // Identical streams and arrival schedules for every policy.
    Rng flood_rng(0xF100D);
    std::vector<BitBuffer> flood_streams;
    for (uint64_t j = 0; j < shape.floodJobs; ++j)
        flood_streams.push_back(
            app.generateStream(flood_rng, shape.floodBytes));
    serve::LoadSpec victim_spec;
    victim_spec.jobs = shape.victimJobs;
    victim_spec.meanInterarrivalCycles =
        double(shape.victimInterarrival);
    victim_spec.minJobBytes = shape.victimBytes;
    victim_spec.maxJobBytes = shape.victimBytes;
    victim_spec.seed = 0x71c7;
    auto victim_arrivals = serve::makeArrivals(victim_spec);
    Rng victim_rng(0x71c7 ^ 0x5eed);
    std::vector<BitBuffer> victim_streams;
    for (const auto &arrival : victim_arrivals)
        victim_streams.push_back(
            app.generateStream(victim_rng, arrival.streamBytes));

    serve::FleetService service(app.program(),
                                serviceConfig(opts, shape, policy));
    std::vector<serve::JobTicket> flood_tickets, victim_tickets;

    serve::SubmitOptions flood_opts;
    flood_opts.tag.tenant = 0;
    flood_opts.tag.priority = 1; // audit class: yields under Priority
    serve::SubmitOptions victim_opts;
    victim_opts.tag.tenant = 1;
    victim_opts.tag.priority = 0; // latency-critical class

    auto start = std::chrono::steady_clock::now();
    if (!isolated)
        for (auto &stream : flood_streams)
            flood_tickets.push_back(
                service.submitAt(std::move(stream), 0, flood_opts));

    size_t next = 0;
    uint64_t offset = 0;
    for (;;) {
        uint64_t now = service.stats().simCycles;
        while (next < victim_arrivals.size() &&
               victim_arrivals[next].cycle <= now + offset) {
            victim_tickets.push_back(service.submitAt(
                std::move(victim_streams[next]),
                victim_arrivals[next].cycle - offset, victim_opts));
            ++next;
        }
        bool work = service.pump();
        if (!work) {
            if (next >= victim_arrivals.size())
                break;
            // Idle warp to the next victim arrival (the isolated
            // baseline has real gaps; the flooded runs rarely idle).
            uint64_t vnow = now + offset;
            if (victim_arrivals[next].cycle > vnow)
                offset += victim_arrivals[next].cycle - vnow;
        }
    }
    service.shutdown();
    result.simWallS = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

    std::vector<uint64_t> victim_totals, flood_totals;
    uint64_t victim_wait = 0;
    for (const auto &ticket : victim_tickets) {
        const runtime::JobReport &report = ticket.report();
        if (!report.ok())
            continue;
        ++result.victimServed;
        victim_totals.push_back(report.totalCycles());
        victim_wait += report.queueWaitCycles();
    }
    for (const auto &ticket : flood_tickets) {
        const runtime::JobReport &report = ticket.report();
        if (!report.ok())
            continue;
        ++result.floodServed;
        flood_totals.push_back(report.totalCycles());
    }
    std::sort(victim_totals.begin(), victim_totals.end());
    std::sort(flood_totals.begin(), flood_totals.end());
    result.victimP50 = percentile(victim_totals, 0.50);
    result.victimP95 = percentile(victim_totals, 0.95);
    result.victimP99 = percentile(victim_totals, 0.99);
    result.victimMeanWait =
        result.victimServed
            ? double(victim_wait) / double(result.victimServed)
            : 0;
    result.floodP99 = percentile(flood_totals, 0.99);
    result.simCycles = service.stats().simCycles;
    for (const auto &report : service.session().reports())
        result.signature.push_back(
            {report.enqueueCycle, report.admittedCycle,
             report.completedCycle, report.armCycle,
             report.retireCycle, report.tenant});
    return result;
}

bool
writeJson(const std::string &path, const std::string &app,
          const RunOptions &opts, const BenchShape &shape,
          const std::vector<PolicyResult> &points)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fprintf(f, "{\n");
    bench::writeRunMetadata(f, "tenant_isolation",
                            opts.backendName.c_str(), opts.threads);
    std::fprintf(f, "  \"smoke\": %s,\n", opts.smoke ? "true" : "false");
    std::fprintf(f, "  \"app\": \"%s\",\n", app.c_str());
    std::fprintf(f, "  \"slots\": %d,\n", shape.slots);
    std::fprintf(f, "  \"channels\": %d,\n", shape.channels);
    std::fprintf(f, "  \"victim_jobs\": %llu,\n",
                 static_cast<unsigned long long>(shape.victimJobs));
    std::fprintf(f, "  \"flood_jobs\": %llu,\n",
                 static_cast<unsigned long long>(shape.floodJobs));
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
        const PolicyResult &p = points[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"label\": \"%s\",\n", p.label.c_str());
        std::fprintf(f, "      \"isolated\": %s,\n",
                     p.isolated ? "true" : "false");
        std::fprintf(f, "      \"victim_served\": %llu,\n",
                     static_cast<unsigned long long>(p.victimServed));
        std::fprintf(f, "      \"flood_served\": %llu,\n",
                     static_cast<unsigned long long>(p.floodServed));
        std::fprintf(f, "      \"victim_p50_cycles\": %llu,\n",
                     static_cast<unsigned long long>(p.victimP50));
        std::fprintf(f, "      \"victim_p95_cycles\": %llu,\n",
                     static_cast<unsigned long long>(p.victimP95));
        std::fprintf(f, "      \"victim_p99_cycles\": %llu,\n",
                     static_cast<unsigned long long>(p.victimP99));
        std::fprintf(f, "      \"victim_mean_wait_cycles\": %.3f,\n",
                     p.victimMeanWait);
        std::fprintf(f, "      \"flood_p99_cycles\": %llu,\n",
                     static_cast<unsigned long long>(p.floodP99));
        std::fprintf(f, "      \"sim_cycles\": %llu,\n",
                     static_cast<unsigned long long>(p.simCycles));
        std::fprintf(f, "      \"sim_wall_s\": %.6f\n", p.simWallS);
        std::fprintf(f, "    }%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

/** Exact victim-p99 comparison against a previously written JSON (the
 * simulated schedule is deterministic, so any drift is real). */
bool
checkBaseline(const std::string &path,
              const std::vector<PolicyResult> &points)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
        return false;
    }
    std::vector<std::pair<std::string, std::string>> baseline;
    std::string line, current_label;
    while (std::getline(in, line)) {
        auto grab = [&line](const char *key) -> std::string {
            auto pos = line.find(key);
            if (pos == std::string::npos)
                return "";
            pos = line.find(':', pos);
            if (pos == std::string::npos)
                return "";
            std::string value = line.substr(pos + 1);
            const char *junk = " \t\",";
            auto b = value.find_first_not_of(junk);
            auto e = value.find_last_not_of(junk);
            return b == std::string::npos
                       ? std::string()
                       : value.substr(b, e - b + 1);
        };
        if (auto label = grab("\"label\""); !label.empty())
            current_label = label;
        if (auto p99 = grab("\"victim_p99_cycles\""); !p99.empty()) {
            if (!current_label.empty())
                baseline.emplace_back(current_label, p99);
            current_label.clear();
        }
    }
    bool ok = true;
    for (const auto &p : points) {
        char now[32];
        std::snprintf(now, sizeof(now), "%llu",
                      static_cast<unsigned long long>(p.victimP99));
        auto it = std::find_if(
            baseline.begin(), baseline.end(),
            [&p](const auto &b) { return b.first == p.label; });
        if (it == baseline.end()) {
            std::fprintf(stderr, "baseline: point %s missing from %s\n",
                         p.label.c_str(), path.c_str());
            ok = false;
        } else if (it->second != now) {
            std::fprintf(stderr,
                         "baseline: %s victim p99 changed: %s -> %s "
                         "cycles\n",
                         p.label.c_str(), it->second.c_str(), now);
            ok = false;
        }
    }
    if (ok)
        std::printf("baseline: victim p99 unchanged for all %zu policy "
                    "points (vs %s)\n",
                    points.size(), path.c_str());
    return ok;
}

/** Replay a policy point across thread counts and the other backend;
 * the per-job tuples must be bit-identical. */
bool
crosscheckDeterminism(const apps::Application &app,
                      const RunOptions &opts, const BenchShape &shape,
                      const char *label,
                      runtime::SchedulerPolicy policy,
                      const PolicyResult &reference)
{
    struct Variant
    {
        const char *what;
        std::string backendName;
        system::PuBackend backend;
        int threads;
    };
    std::vector<Variant> variants = {
        {"1 host thread", opts.backendName, opts.backend, 1},
        {"2 host threads", opts.backendName, opts.backend, 2},
    };
    auto cross = opts.backend == system::PuBackend::Fast
                     ? system::PuBackend::Rtl
                     : system::PuBackend::Fast;
    variants.push_back({opts.backend == system::PuBackend::Fast
                            ? "rtl backend"
                            : "fast backend",
                        system::puBackendName(cross), cross,
                        opts.threads});

    bool ok = true;
    for (const auto &variant : variants) {
        RunOptions vopts = opts;
        vopts.backendName = variant.backendName;
        vopts.backend = variant.backend;
        vopts.threads = variant.threads;
        PolicyResult replay =
            runPolicy(app, vopts, shape, label, policy, false);
        if (replay.signature != reference.signature) {
            std::fprintf(stderr,
                         "DETERMINISM VIOLATION: %s/%s: per-job tuples "
                         "diverged from the reference run\n",
                         label, variant.what);
            ok = false;
        } else {
            std::printf("determinism: %s/%s: %zu per-job tuples "
                        "bit-identical\n",
                        label, variant.what, replay.signature.size());
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            opts.smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            opts.jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 &&
                   i + 1 < argc) {
            opts.baselinePath = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            opts.threads = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--backend") == 0 &&
                   i + 1 < argc) {
            auto parsed = system::parsePuBackend(argv[++i]);
            if (!parsed) {
                std::fprintf(stderr, "unknown backend %s (choices: %s)\n",
                             argv[i], system::kPuBackendChoices);
                return 2;
            }
            opts.backend = *parsed;
            opts.backendName = system::puBackendName(*parsed);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--json PATH] "
                         "[--baseline PATH] [--threads N] "
                         "[--backend %s]\n",
                         argv[0], system::kPuBackendChoices);
            return 2;
        }
    }

    BenchShape shape;
    if (opts.smoke)
        shape = {6, 2, 4096, 16, 64, 96, 640, 1200};
    else
        shape = {8, 2, 8192, 32, 192, 128, 1024, 1500};

    auto apps = apps::allApplications();
    const apps::Application &app = *apps.front();

    bench::printHeader(
        "Tenant tail-latency isolation (flood vs paced victim)",
        "Identical admitted sequence per scheduling policy; victim "
        "latency vs a victim-only isolated baseline.");
    std::printf("app=%s backend=%s slots=%d channels=%d victim=%llu "
                "flood=%llu\n\n",
                app.name().c_str(), opts.backendName.c_str(),
                shape.slots, shape.channels,
                static_cast<unsigned long long>(shape.victimJobs),
                static_cast<unsigned long long>(shape.floodJobs));

    struct PolicyPoint
    {
        const char *label;
        runtime::SchedulerPolicy policy;
        bool isolated;
    };
    const PolicyPoint sweep[] = {
        {"isolated", runtime::SchedulerPolicy::Fifo, true},
        {"fifo", runtime::SchedulerPolicy::Fifo, false},
        {"priority", runtime::SchedulerPolicy::Priority, false},
        {"sjf", runtime::SchedulerPolicy::Sjf, false},
        {"wfq", runtime::SchedulerPolicy::Wfq, false},
    };
    std::vector<PolicyResult> points;
    for (const PolicyPoint &point : sweep)
        points.push_back(runPolicy(app, opts, shape, point.label,
                                   point.policy, point.isolated));

    const PolicyResult &isolated = points[0];
    Table table({"Policy", "Victim", "Flood", "V p50", "V p95", "V p99",
                 "p99 vs isol", "V wait", "Sim cyc"});
    for (const auto &p : points) {
        double blowup =
            isolated.victimP99
                ? double(p.victimP99) / double(isolated.victimP99)
                : 0;
        table.row()
            .cell(p.label)
            .cell(p.victimServed)
            .cell(p.floodServed)
            .cell(p.victimP50)
            .cell(p.victimP95)
            .cell(p.victimP99)
            .cell(blowup, 2)
            .cell(p.victimMeanWait, 1)
            .cell(p.simCycles);
    }
    std::printf("%s\n", table.str().c_str());

    bool ok = true;
    for (const auto &p : points) {
        if (p.victimServed != shape.victimJobs) {
            std::fprintf(stderr,
                         "GATE: %s: victim served %llu of %llu jobs\n",
                         p.label.c_str(),
                         static_cast<unsigned long long>(p.victimServed),
                         static_cast<unsigned long long>(
                             shape.victimJobs));
            ok = false;
        }
        if (!p.isolated && p.floodServed != shape.floodJobs) {
            std::fprintf(stderr,
                         "GATE: %s: flood served %llu of %llu jobs "
                         "(no-starvation violated)\n",
                         p.label.c_str(),
                         static_cast<unsigned long long>(p.floodServed),
                         static_cast<unsigned long long>(
                             shape.floodJobs));
            ok = false;
        }
    }
    const PolicyResult *fifo = nullptr, *wfq = nullptr;
    for (const auto &p : points) {
        if (p.label == "fifo")
            fifo = &p;
        if (p.label == "wfq")
            wfq = &p;
    }
    if (fifo && wfq && isolated.victimP99 > 0) {
        // The headline gates.
        if (wfq->victimP99 > 3 * isolated.victimP99) {
            std::fprintf(stderr,
                         "GATE: wfq victim p99 %llu exceeds 3x the "
                         "isolated baseline %llu\n",
                         static_cast<unsigned long long>(wfq->victimP99),
                         static_cast<unsigned long long>(
                             isolated.victimP99));
            ok = false;
        }
        if (fifo->victimP99 <= wfq->victimP99) {
            std::fprintf(stderr,
                         "GATE: fifo victim p99 %llu does not exceed "
                         "wfq's %llu — the flood never hurt\n",
                         static_cast<unsigned long long>(
                             fifo->victimP99),
                         static_cast<unsigned long long>(
                             wfq->victimP99));
            ok = false;
        }
    }

    if (opts.smoke && fifo && wfq) {
        if (!crosscheckDeterminism(app, opts, shape, "fifo",
                                   runtime::SchedulerPolicy::Fifo,
                                   *fifo))
            ok = false;
        if (!crosscheckDeterminism(app, opts, shape, "wfq",
                                   runtime::SchedulerPolicy::Wfq, *wfq))
            ok = false;
    }

    if (!opts.jsonPath.empty() &&
        !writeJson(opts.jsonPath, app.name(), opts, shape, points))
        ok = false;
    if (!opts.baselinePath.empty() &&
        !checkBaseline(opts.baselinePath, points))
        ok = false;
    return ok ? 0 : 1;
}
