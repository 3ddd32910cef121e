/**
 * @file
 * One benchmark workload, run once, in one process. It generates every
 * input from a seed, times each call into a layer's public entry point
 * from outside, checks every output against Application::golden, and
 * prints one JSON object on stdout. fleetbench/run.py builds this
 * driver, runs it several times per benchmark run (each in a fresh
 * process with an empty jit cache), checks that the simulated numbers
 * replay exactly, and reduces the host timings to medians.
 *
 * Workloads (README.md explains why each was chosen):
 *   paper_fig7       six apps in Figure 7's shape, Fast backend, one
 *                    channel + the SIMT GPU model;
 *   chip_rtljit      six apps, one-shot, 4 channels x 64 PUs, rtljit;
 *   serve_open_loop  JsonParsing on a 2-device FleetService, open-loop
 *                    Poisson arrivals on the simulated clock.
 *
 * Usage:
 *   fleetbench_workload --workload NAME --seed N --threads T
 *                       [--spans PATH]
 *
 * With --spans the driver records a span (name, start, end, parent,
 * trace id) around every layer call and writes them, one JSON object
 * per line, to PATH when the workload ends. Without it no span is
 * kept; only the phase totals that make up the end-to-end metrics are
 * timed.
 *
 * Output keys: "host" holds wall-clock and CPU seconds (they vary run
 * to run); "sim" holds simulated metrics and counts, which are a pure
 * function of the seed and must replay bit-identically.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/intcode.h"
#include "apps/registry.h"
#include "baseline/simt.h"
#include "bench_common.h"
#include "compile/compiler.h"
#include "model/area.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "system/fleet_system.h"

using namespace fleet;

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Host CPU seconds used so far: every thread of this process plus every
 * child it has waited for (the jit's compiler runs). Unlike wall time,
 * it does not grow while a virtualised host's vCPUs are stolen.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    auto tv = [](const timeval &t) { return t.tv_sec + t.tv_usec * 1e-6; };
    return ts.tv_sec + ts.tv_nsec * 1e-9 + tv(children.ru_utime) +
           tv(children.ru_stime);
}

/** Accumulated wall and CPU seconds of one phase. */
struct Clock
{
    double wall = 0;
    double cpu = 0;
};

/** In-memory span recorder; does nothing unless enabled. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        uint32_t id;
        uint32_t parent;
        uint64_t trace; ///< Shared by the spans of one request.
        int64_t startNs;
        int64_t endNs;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its index. */
    size_t
    open(const char *name, int64_t start_ns, uint64_t trace)
    {
        uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
        spans_.push_back({name, id, parent(), trace, start_ns, 0});
        stack_.push_back(id);
        return spans_.size() - 1;
    }

    void
    close(size_t index, int64_t end_ns)
    {
        spans_[index].endNs = end_ns;
        stack_.pop_back();
    }

    /** A span whose interval was stamped elsewhere. */
    void
    record(const char *name, int64_t start_ns, int64_t end_ns,
           uint64_t trace)
    {
        if (!enabled_)
            return;
        uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
        spans_.push_back({name, id, parent(), trace, start_ns, end_ns});
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        for (const Span &s : spans_)
            std::fprintf(f,
                         "{\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                         "\"trace\": %llu, \"start_ns\": %lld, "
                         "\"end_ns\": %lld}\n",
                         s.name, s.id, s.parent,
                         static_cast<unsigned long long>(s.trace),
                         static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs));
        return std::fclose(f) == 0;
    }

  private:
    uint32_t parent() const { return stack_.empty() ? 0 : stack_.back(); }

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_;
};

/**
 * Times one scope: adds its wall and CPU time to `total` (if given) and
 * records it as a span when tracing. With neither, it reads no clock.
 */
class Timed
{
  public:
    Timed(Tracer &tracer, const char *name, Clock *total = nullptr,
          uint64_t trace = 0)
        : tracer_(tracer), total_(total)
    {
        if (total_)
            startCpu_ = cpuSeconds();
        if (!total_ && !tracer_.enabled())
            return;
        startNs_ = nowNs();
        if (tracer_.enabled())
            span_ = tracer_.open(name, startNs_, trace);
    }

    ~Timed()
    {
        if (!total_ && !tracer_.enabled())
            return;
        int64_t end = nowNs();
        if (total_) {
            total_->wall += double(end - startNs_) * 1e-9;
            total_->cpu += cpuSeconds() - startCpu_;
        }
        if (tracer_.enabled())
            tracer_.close(span_, end);
    }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    Tracer &tracer_;
    Clock *total_;
    double startCpu_ = 0;
    int64_t startNs_ = 0;
    size_t span_ = 0;
};

/** Host-time phase totals: the end-to-end metrics and the harness. */
struct Phases
{
    Clock setup;   ///< Before inputs are processed (setup_s).
    Clock measure; ///< The measured phase (wall_s).
    Clock gen;     ///< Input generation (bench.gen_s).
    Clock check;   ///< Golden checks (bench.check_s).
};

/** Simulated results, a pure function of the seed. */
struct SimTotals
{
    uint64_t inputBytes = 0;
    uint64_t cycles = 0;   ///< Summed over runs (system.sim_cycles).
    uint64_t puCycles = 0; ///< Channel cycles x PUs, summed.
    uint64_t jobs = 0;     ///< Streams processed in the measured phase.
    /** Per-run p50 / p99 of job arrival->completion cycles, summed;
     * reported as the mean over runs (each app is its own run). */
    uint64_t p50Sum = 0;
    uint64_t p99Sum = 0;
    uint64_t latencyRuns = 0;
    uint64_t latencySamples = 0;
    double gbpsRelErr = 0;
    // dram / memctl
    uint64_t beats = 0;
    uint64_t readQueueSum = 0;
    uint64_t channelCycles = 0;
    uint64_t inputStarved = 0;
    uint64_t outputBlocked = 0;
    // baseline
    uint64_t simtWarpInsts = 0;
    uint64_t simtLaneSteps = 0;
    // runtime / serve / cluster
    double queueWaitMean = 0;
    double serviceMean = 0;
    double slotOccupancy = 0;
    uint64_t pumps = 0;
    double releaseLagMean = 0;
    uint64_t rejected = 0;
    uint64_t deviceJobsMin = 0;
    uint64_t deviceJobsMax = 0;
    // correctness
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
};

void
addChannels(SimTotals &sim, const std::vector<system::ChannelStats> &chs)
{
    for (const auto &ch : chs) {
        sim.beats += ch.beatsDelivered + ch.beatsWritten;
        sim.readQueueSum += ch.readQueueOccupancySum;
        sim.channelCycles += ch.cycles;
        sim.inputStarved += ch.inputStarvedCycles;
        sim.outputBlocked += ch.outputBlockedCycles;
    }
}

/** Nearest-rank percentile of a sorted sample. */
uint64_t
percentile(const std::vector<uint64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
    return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

/** Fold one run's per-job latencies into the per-run percentiles. */
void
addLatencies(SimTotals &sim, std::vector<uint64_t> cycles)
{
    std::sort(cycles.begin(), cycles.end());
    sim.p50Sum += percentile(cycles, 0.50);
    sim.p99Sum += percentile(cycles, 0.99);
    sim.latencyRuns += 1;
    sim.latencySamples += cycles.size();
}

struct Context
{
    uint64_t seed = 1;
    int threads = 1;
    Tracer tracer{false};
    Phases phases;
    SimTotals sim;
};

/** Relative error of a simulated Fleet GB/s against Figure 7. */
double
paperRelErr(const std::string &app, double gbps)
{
    double paper = bench::paperRowFor(app).fleetGBps;
    return std::fabs(gbps - paper) / paper;
}

/** Compile `program` (timed) and return its area-model PU count. */
int
compileForArea(Context &ctx, const lang::Program &program)
{
    compile::CompiledUnit unit = [&] {
        Timed setup(ctx.tracer, "bench.setup", &ctx.phases.setup);
        Timed t(ctx.tracer, "compile");
        return compile::compileProgram(program);
    }();
    memctl::ControllerParams ctrl;
    return model::maxProcessingUnits(
        model::Device{},
        model::estimatePuResources(unit.circuit, ctrl), ctrl);
}

/**
 * Build, run and check one one-shot system: the shared step of
 * paper_fig7 and chip_rtljit. Returns input GB/s of the simulated
 * channels.
 */
double
runOneShot(Context &ctx, const apps::Application &app,
           const system::SystemConfig &config, int streams_count,
           uint64_t stream_bytes, uint64_t stream_seed)
{
    std::vector<BitBuffer> streams;
    std::vector<BitBuffer> golden_in;
    {
        Timed t(ctx.tracer, "bench.gen", &ctx.phases.gen);
        streams = bench::makeStreams(app, streams_count, stream_bytes,
                                     stream_seed);
        golden_in = streams;
    }
    const lang::Program program = app.program();
    std::unique_ptr<system::FleetSystem> fleet;
    {
        Timed setup(ctx.tracer, "bench.setup", &ctx.phases.setup);
        Timed t(ctx.tracer, "system.build");
        fleet = std::make_unique<system::FleetSystem>(program, config,
                                                      std::move(streams));
    }
    const system::RunReport *report = nullptr;
    std::vector<uint64_t> latencies;
    {
        Timed measure(ctx.tracer, "bench.measure", &ctx.phases.measure);
        Timed t(ctx.tracer, "system.run");
        report = &fleet->run();
    }
    {
        Timed t(ctx.tracer, "bench.check", &ctx.phases.check);
        for (int pu = 0; pu < fleet->numPus(); ++pu) {
            ++ctx.sim.attempted;
            const auto &outcome = report->pus[size_t(pu)];
            if (!outcome.ok()) {
                ++ctx.sim.failed;
                continue;
            }
            if (!(fleet->output(pu) == app.golden(golden_in[size_t(pu)])))
                ++ctx.sim.mismatched;
            latencies.push_back(outcome.atCycle);
        }
    }
    addLatencies(ctx.sim, std::move(latencies));
    system::SystemStats stats = fleet->stats();
    ctx.sim.inputBytes += stats.inputBytes;
    ctx.sim.cycles += stats.cycles;
    ctx.sim.jobs += uint64_t(fleet->numPus());
    for (const auto &ch : stats.channels)
        ctx.sim.puCycles += ch.cycles * uint64_t(ch.numPus);
    addChannels(ctx.sim, stats.channels);
    return stats.inputGBps();
}

/** paper_fig7: Figure 7's shape at shortened streams (README.md). */
void
paperFig7(Context &ctx)
{
    const model::Device device;
    const uint64_t system_bytes = 6144;
    const uint64_t simt_bytes = 1024;
    const int simt_streams = 64;
    double rel_err_sum = 0;
    auto apps_list = apps::allApplications();
    for (size_t a = 0; a < apps_list.size(); ++a) {
        const apps::Application &app = *apps_list[a];
        int pus = compileForArea(ctx, app.program());
        int per_channel =
            std::clamp(pus / device.memoryChannels, 1, 96);
        // Integer coding averages five value ranges, as in the paper.
        std::vector<int> ranges = {15};
        if (app.name() == "IntegerCoding")
            ranges = {5, 10, 15, 20, 25};
        double gbps_sum = 0;
        for (int range : ranges) {
            std::unique_ptr<apps::Application> variant;
            const apps::Application *use = &app;
            if (app.name() == "IntegerCoding") {
                variant = std::make_unique<apps::IntcodeApp>(
                    apps::IntcodeParams{range});
                use = variant.get();
            }
            uint64_t stream_seed = ctx.seed * 1000003 + a * 101 + range;
            system::SystemConfig config;
            config.numChannels = 1;
            config.backend = system::PuBackend::Fast;
            config.numThreads = ctx.threads;
            gbps_sum += runOneShot(ctx, *use, config, per_channel,
                                   system_bytes, stream_seed) *
                        device.memoryChannels;

            std::vector<BitBuffer> gpu_streams;
            {
                Timed t(ctx.tracer, "bench.gen", &ctx.phases.gen);
                gpu_streams = bench::makeStreams(
                    *use, simt_streams, simt_bytes, stream_seed ^ 0x517);
            }
            const lang::Program program = use->program();
            baseline::SimtParams params;
            baseline::SimtResult simt;
            {
                Timed measure(ctx.tracer, "bench.measure",
                              &ctx.phases.measure);
                Timed t(ctx.tracer, "baseline.simt");
                simt = baseline::simulateWarps(program, gpu_streams,
                                               params);
            }
            ctx.sim.simtWarpInsts += simt.warpInstructions;
            ctx.sim.simtLaneSteps +=
                simt.warpSteps * uint64_t(params.warpSize);
            ctx.sim.jobs += uint64_t(simt_streams);
        }
        rel_err_sum +=
            paperRelErr(app.name(), gbps_sum / double(ranges.size()));
    }
    ctx.sim.gbpsRelErr = rel_err_sum / double(apps_list.size());
}

/** chip_rtljit: a full 4-channel chip per app, cycle-accurate. */
void
chipRtlJit(Context &ctx)
{
    double rel_err_sum = 0;
    auto apps_list = apps::allApplications();
    for (size_t a = 0; a < apps_list.size(); ++a) {
        const apps::Application &app = *apps_list[a];
        compileForArea(ctx, app.program());
        system::SystemConfig config;
        config.numChannels = 4;
        config.backend = system::PuBackend::RtlJit;
        config.numThreads = ctx.threads;
        double gbps = runOneShot(ctx, app, config, 4 * 64, 16384,
                                 ctx.seed * 1000003 + a * 101);
        rel_err_sum += paperRelErr(app.name(), gbps);
    }
    ctx.sim.gbpsRelErr = rel_err_sum / double(apps_list.size());
}

/** serve_open_loop: open-loop Poisson load on a 2-device service. */
void
serveOpenLoop(Context &ctx)
{
    const int devices = 2;
    const int channels = 2;
    const int slots = 8;
    auto app = apps::makeApplication("JsonParsing");
    const lang::Program program = app->program();
    compileForArea(ctx, program);

    serve::LoadSpec spec;
    spec.process = serve::ArrivalProcess::Poisson;
    spec.jobs = 4000;
    spec.meanInterarrivalCycles = 260.0;
    spec.minJobBytes = 512;
    spec.maxJobBytes = 2048;
    spec.seed = ctx.seed * 1000003 + 0x5e7e;

    std::vector<serve::Arrival> arrivals;
    std::vector<BitBuffer> streams;
    std::vector<BitBuffer> golden_in;
    {
        Timed t(ctx.tracer, "bench.gen", &ctx.phases.gen);
        arrivals = serve::makeArrivals(spec);
        Rng rng(spec.seed ^ 0x5eed);
        for (const auto &arrival : arrivals)
            streams.push_back(
                app->generateStream(rng, arrival.streamBytes));
        golden_in = streams;
    }

    serve::ServiceConfig config;
    config.session.system.numChannels = channels;
    config.session.system.numThreads = ctx.threads;
    config.session.system.inputRegionBytes = 4096;
    config.session.system.backend = system::PuBackend::RtlJit;
    config.session.numSlots = slots;
    config.session.numDevices = devices;
    config.maxQueueDepth = 64;
    config.policy = serve::AdmissionPolicy::Reject;
    config.backgroundThread = false;
    std::unique_ptr<serve::FleetService> service;
    {
        Timed setup(ctx.tracer, "bench.setup", &ctx.phases.setup);
        Timed t(ctx.tracer, "serve.build");
        service = std::make_unique<serve::FleetService>(program, config);
    }

    // Paced open loop: release each arrival once the session clock
    // passes its due cycle. The session clock only advances while jobs
    // are in flight, so when the service idles the schedule is warped
    // forward to the next arrival (event-driven queue simulation);
    // within busy periods arrival spacing is exact.
    std::vector<serve::JobTicket> tickets;
    tickets.reserve(arrivals.size());
    uint64_t lag_sum = 0;
    {
        Timed measure(ctx.tracer, "bench.measure", &ctx.phases.measure);
        size_t next = 0;
        uint64_t offset = arrivals.empty() ? 0 : arrivals.front().cycle;
        for (;;) {
            uint64_t now = service->stats().simCycles;
            while (next < arrivals.size() &&
                   arrivals[next].cycle <= now + offset) {
                lag_sum += now + offset - arrivals[next].cycle;
                Timed t(ctx.tracer, "serve.submit", nullptr, next + 1);
                tickets.push_back(service->submitAt(
                    std::move(streams[next]),
                    arrivals[next].cycle - offset));
                ++next;
            }
            bool work;
            {
                Timed t(ctx.tracer, "serve.pump");
                work = service->pump();
            }
            ++ctx.sim.pumps;
            if (!work) {
                if (next >= arrivals.size())
                    break;
                uint64_t vnow = now + offset;
                if (arrivals[next].cycle > vnow)
                    offset += arrivals[next].cycle - vnow;
            }
        }
        Timed t(ctx.tracer, "serve.shutdown");
        service->shutdown();
    }
    // Each job's host lifetime, under its submit span's trace id.
    for (size_t j = 0; ctx.tracer.enabled() && j < tickets.size(); ++j) {
        const runtime::JobReport &r = tickets[j].report();
        if (r.hostDoneNs > r.hostSubmitNs)
            ctx.tracer.record("serve.job", int64_t(r.hostSubmitNs),
                              int64_t(r.hostDoneNs), j + 1);
    }

    uint64_t wait_sum = 0, service_sum = 0, served_bytes = 0, served = 0;
    std::vector<uint64_t> latencies;
    {
        Timed t(ctx.tracer, "bench.check", &ctx.phases.check);
        for (size_t j = 0; j < tickets.size(); ++j) {
            const runtime::JobReport &r = tickets[j].report();
            ++ctx.sim.attempted;
            if (r.status.code == StatusCode::ResourceExhausted) {
                ++ctx.sim.rejected;
                continue;
            }
            if (!r.ok()) {
                ++ctx.sim.failed;
                continue;
            }
            if (!(r.output == app->golden(golden_in[j])))
                ++ctx.sim.mismatched;
            ++served;
            served_bytes += golden_in[j].sizeBits() / 8;
            wait_sum += r.queueWaitCycles();
            service_sum += r.serviceCycles();
            latencies.push_back(r.totalCycles());
        }
    }
    addLatencies(ctx.sim, std::move(latencies));
    serve::ServiceStats stats = service->stats();
    ctx.sim.inputBytes = served_bytes;
    ctx.sim.cycles = stats.simCycles;
    ctx.sim.jobs = served;
    ctx.sim.releaseLagMean =
        arrivals.empty() ? 0 : double(lag_sum) / double(arrivals.size());
    ctx.sim.queueWaitMean = served ? double(wait_sum) / served : 0;
    ctx.sim.serviceMean = served ? double(service_sum) / served : 0;
    ctx.sim.slotOccupancy =
        stats.simCycles
            ? double(service_sum) /
                  (double(stats.simCycles) * slots * devices)
            : 0;
    if (!stats.deviceCompleted.empty()) {
        auto [lo, hi] = std::minmax_element(stats.deviceCompleted.begin(),
                                            stats.deviceCompleted.end());
        ctx.sim.deviceJobsMin = *lo;
        ctx.sim.deviceJobsMax = *hi;
    }
    for (int d = 0; d < service->session().numDevices(); ++d)
        addChannels(ctx.sim, service->session().deviceStats(d).channels);
    // Served GB/s per 4-channel device, against the paper's JSON row.
    double gbps = stats.simCycles
                      ? double(served_bytes) / double(stats.simCycles) *
                            125e6 / 1e9 / devices * (4.0 / channels)
                      : 0;
    ctx.sim.gbpsRelErr = paperRelErr(app->name(), gbps);
}

void
printJson(const std::string &workload, const Context &ctx)
{
    const SimTotals &s = ctx.sim;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto ratio = [](double a, double b) { return b != 0 ? a / b : 0.0; };
#ifdef NDEBUG
    const bool release = true;
#else
    const bool release = false;
#endif
#ifdef __clang__
    const char *compiler = "clang " __clang_version__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, "
                "\"threads\": %d, \"hardware_threads\": %u, "
                "\"release_build\": %s, \"compiler\": \"%s\", ",
                workload.c_str(),
                static_cast<unsigned long long>(ctx.seed), ctx.threads,
                std::thread::hardware_concurrency(),
                release ? "true" : "false", compiler);
    const Phases &p = ctx.phases;
    std::printf("\"host\": {\"setup_s\": %.9f, \"wall_s\": %.9f, "
                "\"setup_cpu_s\": %.9f, \"wall_cpu_s\": %.9f, "
                "\"gen_s\": %.9f, \"check_s\": %.9f, "
                "\"peak_rss_mb\": %.3f}, ",
                p.setup.wall, p.measure.wall, p.setup.cpu, p.measure.cpu,
                p.gen.wall, p.check.wall, double(usage.ru_maxrss) / 1024.0);
    auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
    std::printf(
        "\"sim\": {\"input_bytes\": %llu, \"sim_cycles\": %llu, "
        "\"pu_cycles\": %llu, \"jobs\": %llu, "
        "\"sim_bytes_per_cycle\": %.17g, \"fig7_gbps_rel_err\": %.17g, "
        "\"sim_job_p50_cycles\": %.17g, \"sim_job_p99_cycles\": %.17g, "
        "\"latency_samples\": %llu, "
        "\"dram_bus_utilization\": %.17g, "
        "\"dram_avg_read_queue_depth\": %.17g, "
        "\"memctl_input_starved_cycles\": %llu, "
        "\"memctl_output_blocked_cycles\": %llu, "
        "\"simt_warp_insts\": %llu, \"simt_lane_vcycles\": %llu, "
        "\"runtime_queue_wait_cycles_mean\": %.17g, "
        "\"runtime_service_cycles_mean\": %.17g, "
        "\"runtime_slot_occupancy\": %.17g, "
        "\"serve_pumps\": %llu, \"serve_release_lag_cycles\": %.17g, "
        "\"serve_rejected\": %llu, \"cluster_device_jobs_min\": %llu, "
        "\"cluster_device_jobs_max\": %llu}, ",
        u(s.inputBytes), u(s.cycles), u(s.puCycles), u(s.jobs),
        ratio(double(s.inputBytes), double(s.cycles)), s.gbpsRelErr,
        ratio(double(s.p50Sum), double(s.latencyRuns)),
        ratio(double(s.p99Sum), double(s.latencyRuns)), u(s.latencySamples),
        ratio(double(s.beats), double(s.channelCycles)),
        ratio(double(s.readQueueSum), double(s.channelCycles)),
        u(s.inputStarved), u(s.outputBlocked), u(s.simtWarpInsts),
        u(s.simtLaneSteps), s.queueWaitMean, s.serviceMean,
        s.slotOccupancy, u(s.pumps), s.releaseLagMean, u(s.rejected),
        u(s.deviceJobsMin), u(s.deviceJobsMax));
    std::printf("\"attempted\": %llu, \"failed\": %llu, "
                "\"mismatched\": %llu, \"rejected\": %llu}\n",
                u(s.attempted), u(s.failed), u(s.mismatched),
                u(s.rejected));
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload paper_fig7|chip_rtljit|"
                 "serve_open_loop --seed N --threads T [--spans PATH]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spans_path;
    Context ctx;
    bool have_seed = false;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            return usage(argv[0]);
        std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            ctx.seed = std::strtoull(value, nullptr, 10);
            have_seed = true;
        } else if (flag == "--threads") {
            ctx.threads = std::atoi(value);
        } else if (flag == "--spans") {
            spans_path = value;
        } else {
            return usage(argv[0]);
        }
    }
    if (!have_seed || ctx.threads < 1)
        return usage(argv[0]);
    ctx.tracer = Tracer(!spans_path.empty());

    try {
        Timed root(ctx.tracer, "workload");
        if (workload == "paper_fig7")
            paperFig7(ctx);
        else if (workload == "chip_rtljit")
            chipRtlJit(ctx);
        else if (workload == "serve_open_loop")
            serveOpenLoop(ctx);
        else
            return usage(argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", workload.c_str(), e.what());
        return 1;
    }
    if (!spans_path.empty() && !ctx.tracer.write(spans_path)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     spans_path.c_str());
        return 1;
    }
    printJson(workload, ctx);
    return 0;
}
