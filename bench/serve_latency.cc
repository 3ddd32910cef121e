/**
 * @file
 * Open-loop serving latency under offered load (ISSUE 6). The
 * closed-loop job_throughput bench cannot see queueing delay: it only
 * submits as fast as the system drains. This harness schedules arrivals
 * *in advance* on the simulated clock (deterministic seeded Poisson and
 * bursty processes, heterogeneous job sizes — serve/load_gen.h), drives
 * a paced FleetService, and reports the latency distribution the
 * serving layer actually delivers at each load point:
 *
 *  - p50/p95/p99 end-to-end job latency in simulated cycles, plus the
 *    mean queue-wait / service decomposition from JobReport;
 *  - jobs/s           host-side serving rate (simulation speed);
 *  - reject rate      fraction turned away by admission control
 *                     (bounded queue, Reject policy);
 *  - slot occupancy   fraction of slot-cycles holding a job.
 *
 * Offered load is calibrated: a closed warm-up batch measures the mean
 * per-job service time, and each point's mean interarrival gap is
 * meanService / (slots * rho) — so rho = 1.0 is the pool's saturation
 * point and the sweep brackets it from both sides.
 *
 * Idle gaps: the session clock only advances while jobs are in flight,
 * so the driver keeps a warp offset between the schedule's timeline and
 * the session clock — when the system goes idle it warps forward to the
 * next arrival (standard event-driven queue simulation). Within busy
 * periods arrival spacing is preserved exactly.
 *
 * Determinism: everything simulated is a pure function of the seeded
 * schedule, so in --smoke mode the harness replays one load point
 * across PU backends and host thread counts and fails (exit 1) unless
 * every per-job latency tuple is bit-identical — the serving-layer
 * extension of the runtime determinism fence. Host wall-time fields are
 * excluded (they are reported, not fenced).
 *
 * Flags:
 *  --smoke           short CI configuration + determinism crosscheck.
 *  --json PATH       write per-point results as JSON (BENCH_LAT.json).
 *  --baseline PATH   compare p99 per point against a previous JSON;
 *                    exact match required (the simulator is
 *                    deterministic), nonzero exit on drift.
 *  --threads N       host worker threads (0 = one per hardware thread).
 *  --backend B       fast | rtl | rtlinterp | rtljit
 *                    (system/pu_backend.h; rtl* are cycle-accurate).
 *  --faults SEED     run every load point under the FaultPlan storm
 *                    keyed by SEED with the recovery stack armed
 *                    (retry, quarantine, requeue — ISSUE 7): the
 *                    latency distribution then includes retry delay,
 *                    the price of self-healing under load. The
 *                    zero-failed gate is relaxed (contained failures
 *                    are expected); determinism gates still hold.
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
    bool faults = false;
    uint64_t faultSeed = 0;
};

struct PointResult
{
    std::string label;
    serve::ArrivalProcess process = serve::ArrivalProcess::Poisson;
    double rho = 0;
    double meanInterarrival = 0;
    uint64_t jobs = 0;
    uint64_t served = 0;
    uint64_t rejected = 0;
    uint64_t failed = 0; ///< Neither served nor rejected (stranded).
    uint64_t retries = 0; ///< Transient failures re-submitted (--faults).
    double rejectRate = 0;
    uint64_t p50 = 0, p95 = 0, p99 = 0; ///< Total latency, sim cycles.
    double meanQueueWait = 0;
    double meanService = 0;
    double slotOccupancy = 0;
    uint64_t simCycles = 0;
    double jobsPerSec = 0;
    double simWallS = 0;
    /** Per-job simulated-latency tuples in job-id order — the
     * determinism fence (host wall fields deliberately absent). */
    std::vector<std::array<uint64_t, 5>> signature;
};

struct BenchShape
{
    int slots = 8;
    int channels = 2;
    uint64_t regionBytes = 4096;
    uint64_t jobsPerPoint = 96;
    size_t maxQueueDepth = 32;
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
serviceConfig(const RunOptions &opts, const BenchShape &shape)
{
    serve::ServiceConfig config;
    config.session.system.numChannels = shape.channels;
    config.session.system.numThreads = opts.threads;
    config.session.system.inputRegionBytes = shape.regionBytes;
    config.session.system.backend = opts.backend;
    config.session.numSlots = shape.slots;
    config.maxQueueDepth = shape.maxQueueDepth;
    config.policy = serve::AdmissionPolicy::Reject;
    config.backgroundThread = false; // paced: deterministic pacing
    if (opts.faults) {
        // Fault storm with the full recovery stack armed (ISSUE 7):
        // the measured distribution then prices in retry delay.
        config.session.system.faults =
            fault::FaultPlan::fromSeed(opts.faultSeed);
        config.retry.maxAttempts = 3;
        config.retry.backoffCycles = 64;
        config.session.quarantineAfterFaults = 3;
        config.session.requeueStranded = true;
    }
    return config;
}

/** Closed warm-up batch: mean service cycles per job at this shape. */
double
calibrateServiceCycles(const apps::Application &app,
                       const RunOptions &opts, const BenchShape &shape)
{
    // Calibrate fault-free even under --faults so rho keeps meaning
    // offered load / *healthy* pool capacity across both modes.
    RunOptions clean = opts;
    clean.faults = false;
    serve::ServiceConfig config = serviceConfig(clean, shape);
    serve::FleetService service(app.program(), config);
    uint64_t bytes =
        (shape.regionBytes / 8 + shape.regionBytes / 2) / 2;
    Rng rng(0xCA11B);
    uint64_t jobs = uint64_t(shape.slots) * 2;
    for (uint64_t j = 0; j < jobs; ++j)
        service.submitAt(app.generateStream(rng, bytes), 0);
    while (service.pump()) {
    }
    service.shutdown();
    uint64_t total = 0, count = 0;
    for (const auto &report : service.session().reports())
        if (report.ok()) {
            total += report.serviceCycles();
            ++count;
        }
    if (count == 0)
        throw std::runtime_error("calibration served no jobs");
    return double(total) / double(count);
}

PointResult
runPoint(const apps::Application &app, const RunOptions &opts,
         const BenchShape &shape, serve::ArrivalProcess process,
         double rho, double mean_service)
{
    serve::LoadSpec spec;
    spec.process = process;
    spec.jobs = shape.jobsPerPoint;
    spec.meanInterarrivalCycles =
        std::max(1.0, mean_service / (double(shape.slots) * rho));
    spec.minJobBytes = shape.regionBytes / 8;
    spec.maxJobBytes = shape.regionBytes / 2;
    spec.seed = 0xf1ee7 + uint64_t(rho * 100);

    PointResult result;
    char label[64];
    std::snprintf(label, sizeof(label), "%s-%.2f",
                  serve::arrivalProcessName(process), rho);
    result.label = label;
    result.process = process;
    result.rho = rho;
    result.meanInterarrival = spec.meanInterarrivalCycles;
    result.jobs = spec.jobs;

    auto arrivals = serve::makeArrivals(spec);
    Rng stream_rng(spec.seed ^ 0x5eed);
    std::vector<BitBuffer> streams;
    streams.reserve(arrivals.size());
    for (const auto &arrival : arrivals)
        streams.push_back(
            app.generateStream(stream_rng, arrival.streamBytes));

    serve::FleetService service(app.program(),
                                serviceConfig(opts, shape));
    std::vector<serve::JobTicket> tickets;
    tickets.reserve(arrivals.size());

    auto start = std::chrono::steady_clock::now();
    size_t next = 0;
    // Warp offset between the schedule's timeline and the session
    // clock; jumps forward over idle gaps (see the file comment).
    uint64_t offset = arrivals.empty() ? 0 : arrivals.front().cycle;
    for (;;) {
        uint64_t now = service.stats().simCycles;
        while (next < arrivals.size() &&
               arrivals[next].cycle <= now + offset) {
            tickets.push_back(service.submitAt(
                std::move(streams[next]),
                arrivals[next].cycle - offset));
            ++next;
        }
        bool work = service.pump();
        if (!work) {
            if (next >= arrivals.size())
                break;
            uint64_t vnow = now + offset;
            if (arrivals[next].cycle > vnow)
                offset += arrivals[next].cycle - vnow;
        }
    }
    service.shutdown();
    result.simWallS = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

    std::vector<uint64_t> totals;
    uint64_t wait_sum = 0, service_sum = 0;
    for (const auto &ticket : tickets) {
        const runtime::JobReport &report = ticket.report();
        if (report.status.code == StatusCode::ResourceExhausted) {
            ++result.rejected;
            continue;
        }
        if (!report.ok()) {
            ++result.failed;
            continue;
        }
        ++result.served;
        totals.push_back(report.totalCycles());
        wait_sum += report.queueWaitCycles();
        service_sum += report.serviceCycles();
    }
    std::sort(totals.begin(), totals.end());
    result.rejectRate =
        result.jobs > 0 ? double(result.rejected) / double(result.jobs)
                        : 0;
    result.p50 = percentile(totals, 0.50);
    result.p95 = percentile(totals, 0.95);
    result.p99 = percentile(totals, 0.99);
    result.meanQueueWait =
        result.served ? double(wait_sum) / double(result.served) : 0;
    result.meanService =
        result.served ? double(service_sum) / double(result.served) : 0;
    result.retries = service.stats().retries;
    result.simCycles = service.stats().simCycles;
    result.jobsPerSec = result.simWallS > 0
                            ? double(result.served) / result.simWallS
                            : 0;
    uint64_t busy = 0;
    for (const auto &report : service.session().reports()) {
        busy += report.serviceCycles();
        result.signature.push_back(
            {report.enqueueCycle, report.admittedCycle,
             report.completedCycle, report.armCycle,
             report.retireCycle});
    }
    result.slotOccupancy =
        result.simCycles > 0
            ? double(busy) / (double(result.simCycles) * shape.slots)
            : 0;
    return result;
}

bool
writeJson(const std::string &path, const std::string &app,
          const RunOptions &opts, const BenchShape &shape,
          const std::vector<PointResult> &points)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fprintf(f, "{\n");
    bench::writeRunMetadata(f, "serve_latency",
                            opts.backendName.c_str(), opts.threads);
    std::fprintf(f, "  \"smoke\": %s,\n", opts.smoke ? "true" : "false");
    std::fprintf(f, "  \"app\": \"%s\",\n", app.c_str());
    std::fprintf(f, "  \"slots\": %d,\n", shape.slots);
    std::fprintf(f, "  \"channels\": %d,\n", shape.channels);
    std::fprintf(f, "  \"max_queue_depth\": %zu,\n", shape.maxQueueDepth);
    std::fprintf(f, "  \"policy\": \"reject\",\n");
    if (opts.faults)
        std::fprintf(f, "  \"fault_seed\": %llu,\n",
                     static_cast<unsigned long long>(opts.faultSeed));
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
        const PointResult &p = points[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"label\": \"%s\",\n", p.label.c_str());
        std::fprintf(f, "      \"process\": \"%s\",\n",
                     serve::arrivalProcessName(p.process));
        std::fprintf(f, "      \"rho\": %.3f,\n", p.rho);
        std::fprintf(f, "      \"mean_interarrival_cycles\": %.3f,\n",
                     p.meanInterarrival);
        std::fprintf(f, "      \"jobs\": %llu,\n",
                     static_cast<unsigned long long>(p.jobs));
        std::fprintf(f, "      \"served\": %llu,\n",
                     static_cast<unsigned long long>(p.served));
        std::fprintf(f, "      \"rejected\": %llu,\n",
                     static_cast<unsigned long long>(p.rejected));
        std::fprintf(f, "      \"failed\": %llu,\n",
                     static_cast<unsigned long long>(p.failed));
        std::fprintf(f, "      \"retries\": %llu,\n",
                     static_cast<unsigned long long>(p.retries));
        std::fprintf(f, "      \"reject_rate\": %.4f,\n", p.rejectRate);
        std::fprintf(f, "      \"p50_total_cycles\": %llu,\n",
                     static_cast<unsigned long long>(p.p50));
        std::fprintf(f, "      \"p95_total_cycles\": %llu,\n",
                     static_cast<unsigned long long>(p.p95));
        std::fprintf(f, "      \"p99_total_cycles\": %llu,\n",
                     static_cast<unsigned long long>(p.p99));
        std::fprintf(f, "      \"mean_queue_wait_cycles\": %.3f,\n",
                     p.meanQueueWait);
        std::fprintf(f, "      \"mean_service_cycles\": %.3f,\n",
                     p.meanService);
        std::fprintf(f, "      \"slot_occupancy\": %.4f,\n",
                     p.slotOccupancy);
        std::fprintf(f, "      \"sim_cycles\": %llu,\n",
                     static_cast<unsigned long long>(p.simCycles));
        std::fprintf(f, "      \"jobs_per_sec\": %.3f,\n", p.jobsPerSec);
        std::fprintf(f, "      \"sim_wall_s\": %.6f\n", p.simWallS);
        std::fprintf(f, "    }%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

/**
 * Gate current p99s against a previously written BENCH_LAT.json. The
 * simulated distribution is deterministic, so the comparison is exact:
 * any drift is a real serving-behaviour change. Line-wise scan of our
 * own format ("label" then "p99_total_cycles" per point object),
 * tolerant of added keys.
 */
bool
checkBaseline(const std::string &path,
              const std::vector<PointResult> &points)
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
        if (auto p99 = grab("\"p99_total_cycles\""); !p99.empty()) {
            if (!current_label.empty())
                baseline.emplace_back(current_label, p99);
            current_label.clear();
        }
    }
    bool ok = true;
    for (const auto &p : points) {
        char now[32];
        std::snprintf(now, sizeof(now), "%llu",
                      static_cast<unsigned long long>(p.p99));
        auto it = std::find_if(
            baseline.begin(), baseline.end(),
            [&p](const auto &b) { return b.first == p.label; });
        if (it == baseline.end()) {
            std::fprintf(stderr, "baseline: point %s missing from %s\n",
                         p.label.c_str(), path.c_str());
            ok = false;
        } else if (it->second != now) {
            std::fprintf(stderr,
                         "baseline: %s p99 changed: %s -> %s cycles\n",
                         p.label.c_str(), it->second.c_str(), now);
            ok = false;
        }
    }
    if (ok)
        std::printf("baseline: p99 unchanged for all %zu load points "
                    "(vs %s)\n",
                    points.size(), path.c_str());
    return ok;
}

/** Replay one point under a different backend / thread count and fence
 * the per-job simulated latency tuples bit-for-bit. */
bool
crosscheckDeterminism(const apps::Application &app,
                      const RunOptions &opts, const BenchShape &shape,
                      const PointResult &reference, double mean_service)
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
        PointResult replay =
            runPoint(app, vopts, shape, reference.process,
                     reference.rho, mean_service);
        if (replay.signature != reference.signature) {
            std::fprintf(stderr,
                         "DETERMINISM VIOLATION: %s: per-job latency "
                         "tuples diverged from the reference run\n",
                         variant.what);
            ok = false;
        } else {
            std::printf("determinism: %s: %zu per-job latency tuples "
                        "bit-identical\n",
                        variant.what, replay.signature.size());
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
        } else if (std::strcmp(argv[i], "--faults") == 0 &&
                   i + 1 < argc) {
            opts.faults = true;
            opts.faultSeed = std::strtoull(argv[++i], nullptr, 0);
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
                         "[--backend %s] [--faults SEED]\n",
                         argv[0], system::kPuBackendChoices);
            return 2;
        }
    }

    BenchShape shape;
    std::vector<std::pair<serve::ArrivalProcess, double>> sweep;
    if (opts.smoke) {
        shape = {8, 2, 4096, 96, 32};
        sweep = {{serve::ArrivalProcess::Poisson, 0.5},
                 {serve::ArrivalProcess::Poisson, 0.9},
                 {serve::ArrivalProcess::Poisson, 1.2},
                 {serve::ArrivalProcess::Bursty, 0.9}};
    } else {
        shape = {16, 4, 16384, 512, 64};
        sweep = {{serve::ArrivalProcess::Poisson, 0.3},
                 {serve::ArrivalProcess::Poisson, 0.5},
                 {serve::ArrivalProcess::Poisson, 0.7},
                 {serve::ArrivalProcess::Poisson, 0.9},
                 {serve::ArrivalProcess::Poisson, 1.05},
                 {serve::ArrivalProcess::Poisson, 1.3},
                 {serve::ArrivalProcess::Bursty, 0.5},
                 {serve::ArrivalProcess::Bursty, 0.9}};
    }

    auto apps = apps::allApplications();
    const apps::Application &app = *apps.front();

    bench::printHeader(
        "Serving latency vs offered load (open loop)",
        "Seeded arrivals released on the simulated clock; rho = offered "
        "load / pool capacity (calibrated).");
    std::printf("app=%s backend=%s slots=%d channels=%d queue=%zu "
                "jobs/point=%llu\n\n",
                app.name().c_str(), opts.backendName.c_str(),
                shape.slots, shape.channels, shape.maxQueueDepth,
                static_cast<unsigned long long>(shape.jobsPerPoint));

    double mean_service = calibrateServiceCycles(app, opts, shape);
    std::printf("calibrated mean service: %.1f cycles/job "
                "(capacity ~ %.5f jobs/cycle)\n\n",
                mean_service, shape.slots / mean_service);

    std::vector<PointResult> points;
    for (const auto &[process, rho] : sweep)
        points.push_back(
            runPoint(app, opts, shape, process, rho, mean_service));

    Table table({"Point", "Jobs", "Served", "Retry", "Rej rate",
                 "p50 cyc", "p95 cyc", "p99 cyc", "Wait cyc", "Occup",
                 "Jobs/s"});
    for (const auto &p : points)
        table.row()
            .cell(p.label)
            .cell(p.jobs)
            .cell(p.served)
            .cell(p.retries)
            .cell(p.rejectRate, 3)
            .cell(p.p50)
            .cell(p.p95)
            .cell(p.p99)
            .cell(p.meanQueueWait, 1)
            .cell(p.slotOccupancy, 3)
            .cell(p.jobsPerSec, 1);
    std::printf("%s\n", table.str().c_str());

    bool ok = true;

    // Sanity gates (always): the distribution must be non-degenerate
    // and ordered, and the overload point must exercise admission
    // control.
    for (const auto &p : points) {
        if (p.served == 0 || p.p50 == 0 || p.p99 < p.p95 ||
            p.p95 < p.p50) {
            std::fprintf(stderr,
                         "GATE: %s: degenerate latency distribution "
                         "(served=%llu p50=%llu p95=%llu p99=%llu)\n",
                         p.label.c_str(),
                         static_cast<unsigned long long>(p.served),
                         static_cast<unsigned long long>(p.p50),
                         static_cast<unsigned long long>(p.p95),
                         static_cast<unsigned long long>(p.p99));
            ok = false;
        }
        if (p.failed != 0 && !opts.faults) {
            std::fprintf(stderr, "GATE: %s: %llu jobs failed\n",
                         p.label.c_str(),
                         static_cast<unsigned long long>(p.failed));
            ok = false;
        }
        if (p.rho > 1.0 && p.rejected == 0) {
            std::fprintf(stderr,
                         "GATE: %s: overload point never hit admission "
                         "control\n",
                         p.label.c_str());
            ok = false;
        }
    }

    if (opts.smoke && !points.empty()) {
        // Fence the rho=0.9 Poisson point (index 1) across backends
        // and host thread counts.
        const PointResult &reference =
            points.size() > 1 ? points[1] : points[0];
        if (!crosscheckDeterminism(app, opts, shape, reference,
                                   mean_service))
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
