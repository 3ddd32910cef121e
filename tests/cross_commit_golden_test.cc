/**
 * @file
 * Cross-commit golden: pins the simulated results of a fixed set of
 * configurations to text captured from an earlier, known-good commit
 * (tests/golden/cross_commit.golden).
 *
 * The determinism fences compare runs of one build against each other,
 * and the benchmark's replay check compares repetitions of one build.
 * A change that every engine and thread count shares — a reordered
 * controller scan, a stall counter moved by a cycle — passes both. This
 * test does not: it pins, per configuration, channel cycles and status
 * (the watchdog dump byte for byte), per-PU outcome, finishedAtCycle,
 * starved and blocked cycles, trace phase cycles, the DRAM and
 * controller counters, digests of the phase spans and occupancy
 * histograms, and a digest of every output stream.
 *
 * Configurations: the six registry apps x {Fast, Rtl, RtlJit} on one
 * channel x 8 PUs with short streams; two apps under the controllers'
 * other addressing modes and under a tight controller configuration;
 * one Session job mix with a parity-contained job, an in-flight
 * deadline cancel and an output-region overflow; and one watchdog
 * trip. RtlJit runs as a plain Rtl batch when no host toolchain is
 * present; backend-specific counters are left out, so its golden is
 * the same either way.
 *
 * On a mismatch the test writes the full actual text next to its
 * binary (cross_commit.actual) and reports the first differing line.
 * Replace the golden only with text captured on a commit whose results
 * are known to be right.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "lang/builder.h"
#include "runtime/session.h"
#include "system/fleet_system.h"
#include "system/pu_backend.h"
#include "test_programs.h"
#include "util/rng.h"

#ifndef FLEET_GOLDEN_DIR
#error "FLEET_GOLDEN_DIR must name the directory of the golden files"
#endif

namespace fleet {
namespace system {
namespace {

/** 64-bit FNV-1a, folded over values and strings. */
class Fnv
{
  public:
    Fnv &
    add(uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte(uint8_t(value >> (8 * i)));
        return *this;
    }
    Fnv &
    add(const std::string &text)
    {
        add(text.size());
        for (char c : text)
            byte(uint8_t(c));
        return *this;
    }
    std::string
    hex() const
    {
        std::ostringstream os;
        os << std::hex << hash_;
        return os.str();
    }

  private:
    void
    byte(uint8_t b)
    {
        hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
    uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string
bitsDigest(const BitBuffer &bits)
{
    Fnv fnv;
    fnv.add(bits.sizeBits());
    for (uint8_t b : bits.toBytes())
        fnv.add(b);
    return std::to_string(bits.sizeBits()) + "b/" + fnv.hex();
}

/** A status on one line; multi-line messages (the watchdog dump)
 * follow verbatim, each line prefixed with "| ". */
void
writeStatus(std::ostream &os, const Status &status)
{
    os << statusCodeName(status.code);
    std::istringstream lines(status.message);
    std::string line;
    bool first = true;
    while (std::getline(lines, line)) {
        os << (first ? ": " : "\n| ") << line;
        first = false;
    }
}

/** Counter keys the shard itself records per PU; engine-specific keys
 * (backend_*, tape_ops, ...) are left out so RtlJit and its Rtl
 * fallback share one golden. */
bool
shardPuKey(const std::string &key)
{
    static const std::set<std::string> kKeys = [] {
        std::set<std::string> keys = {
            "stream_bits",       "delivered_bits",
            "emitted_bits",      "flushed_payload_bits",
            "finished_at_cycle", "contained",
            "jobs_retired"};
        for (int p = 0; p < trace::kNumPuPhases; ++p)
            keys.insert(std::string(trace::puPhaseName(
                            static_cast<trace::PuPhase>(p))) +
                        "_cycles");
        return keys;
    }();
    return kKeys.count(key) != 0;
}

void
writeTrace(std::ostream &os, const trace::TraceReport &trace)
{
    for (const trace::ChannelTrace &channel : trace.channels) {
        os << "trace ch" << channel.channel << " cycles "
           << channel.cycles << "\n";
        for (const trace::CounterSet &set : channel.counters) {
            bool pu = set.name.find("/pu") != std::string::npos;
            os << "  " << set.name << ":";
            for (const auto &[key, value] : set.values)
                if (!pu || shardPuKey(key))
                    os << " " << key << "=" << value;
            os << "\n";
        }
        for (const trace::Histogram &hist : channel.histograms) {
            Fnv fnv;
            for (uint64_t bucket : hist.buckets)
                fnv.add(bucket);
            os << "  hist " << hist.name << " " << fnv.hex() << "\n";
        }
        for (const trace::Lane &lane : channel.lanes) {
            Fnv fnv;
            for (const trace::Span &span : lane.spans)
                fnv.add(uint64_t(span.phase))
                    .add(span.beginCycle)
                    .add(span.endCycle);
            for (const trace::Marker &marker : lane.markers)
                fnv.add(marker.cycle).add(marker.label);
            for (const trace::JobSpan &job : lane.jobs)
                fnv.add(job.jobId).add(job.beginCycle).add(job.endCycle);
            os << "  lane pu" << lane.globalPu << " spans "
               << lane.spans.size() << " markers " << lane.markers.size()
               << " jobs " << lane.jobs.size() << " " << fnv.hex()
               << "\n";
        }
        for (const trace::CounterTrack &track : channel.tracks) {
            Fnv fnv;
            for (const auto &[cycle, value] : track.samples)
                fnv.add(cycle).add(value);
            os << "  track " << track.name << " "
               << track.samples.size() << " " << fnv.hex() << "\n";
        }
    }
    for (const trace::CounterTrack &track : trace.sessionTracks) {
        Fnv fnv;
        for (const auto &[cycle, value] : track.samples)
            fnv.add(cycle).add(value);
        os << "session track " << track.name << " "
           << track.samples.size() << " " << fnv.hex() << "\n";
    }
}

void
writeRunReport(std::ostream &os, const RunReport &report)
{
    for (size_t c = 0; c < report.channels.size(); ++c) {
        os << "channel " << c << " cycles " << report.channels[c].cycles
           << " ";
        writeStatus(os, report.channels[c].status);
        os << "\n";
    }
    for (size_t p = 0; p < report.pus.size(); ++p) {
        const PuOutcome &pu = report.pus[p];
        os << "pu " << p << " job " << pu.jobId << " at " << pu.atCycle
           << " out " << pu.outputBits << " ";
        // A unit on a failed channel inherits the channel's status,
        // already written in full above.
        bool inherited = false;
        for (const ChannelOutcome &channel : report.channels)
            inherited = inherited || (!channel.ok() &&
                                      channel.status == pu.status);
        if (inherited)
            os << statusCodeName(pu.status.code) << " (channel status)";
        else
            writeStatus(os, pu.status);
        os << "\n";
    }
    if (report.trace)
        writeTrace(os, *report.trace);
}

SystemConfig
tracedConfig(PuBackend backend)
{
    SystemConfig config;
    config.numChannels = 1;
    config.backend = backend;
    config.numThreads = 1;
    config.trace.counters = true;
    config.trace.events = true;
    return config;
}

/** One-shot runs: every app on 1 channel x 8 PUs, short streams. */
void
writeApps(std::ostream &os)
{
    for (const auto &app : apps::allApplications()) {
        Rng rng(0x601de0 + app->name().size());
        std::vector<BitBuffer> streams;
        for (int p = 0; p < 8; ++p)
            streams.push_back(app->generateStream(rng, 160 + 24 * p));
        for (PuBackend backend :
             {PuBackend::Fast, PuBackend::Rtl, PuBackend::RtlJit}) {
            os << "== app " << app->name() << " "
               << puBackendName(backend) << "\n";
            FleetSystem fleet(app->program(), tracedConfig(backend),
                              streams);
            const RunReport &report = fleet.run();
            writeRunReport(os, report);
            for (int p = 0; p < fleet.numPus(); ++p) {
                const PuStats &stats = fleet.puStats(p);
                os << "stats pu " << p << " finished "
                   << stats.finishedAtCycle << " starved "
                   << stats.inputStarvedCycles << " blocked "
                   << stats.outputBlockedCycles << " output "
                   << bitsDigest(fleet.output(p)) << "\n";
            }
        }
    }
}

/**
 * The controllers' other round-robin modes (non-blocking input and
 * blocking output addressing, synchronous address supply) and a tight
 * controller (double buffering, 4 burst registers, 4 requests ahead),
 * on two apps that emit output.
 */
void
writeControllerModes(std::ostream &os)
{
    for (const char *name : {"IntegerCoding", "BloomFilter"}) {
        auto app = apps::makeApplication(name);
        Rng rng(0xc7a1);
        std::vector<BitBuffer> streams;
        for (int p = 0; p < 8; ++p)
            streams.push_back(app->generateStream(rng, 300 + 40 * p));
        for (int mode = 0; mode < 2; ++mode) {
            os << "== controllers " << name << " mode " << mode << "\n";
            SystemConfig config = tracedConfig(PuBackend::Rtl);
            if (mode == 0) {
                config.inputCtrl.blockingAddressing = false;
                config.outputCtrl.blockingAddressing = true;
                config.outputCtrl.asyncAddressSupply = false;
            } else {
                for (auto *ctrl : {&config.inputCtrl, &config.outputCtrl}) {
                    ctrl->bufferBursts = 2;
                    ctrl->numBurstRegs = 4;
                    ctrl->maxAheadRequests = 4;
                }
            }
            config.watchdogCycles = 20000;
            FleetSystem fleet(app->program(), config, streams);
            writeRunReport(os, fleet.run());
            for (int p = 0; p < fleet.numPus(); ++p) {
                const PuStats &stats = fleet.puStats(p);
                os << "stats pu " << p << " finished "
                   << stats.finishedAtCycle << " starved "
                   << stats.inputStarvedCycles << " blocked "
                   << stats.outputBlockedCycles << " output "
                   << bitsDigest(fleet.output(p)) << "\n";
            }
        }
    }
}

/**
 * A Session job mix on 2 channels x 4 slots that exercises every
 * per-job containment path: parity errors on corrupted read beats,
 * in-flight deadline cancels (ChannelShard::cancelPu) and output-region
 * overflow, with slots re-armed behind each.
 */
void
writeSession(std::ostream &os, PuBackend backend)
{
    os << "== session " << puBackendName(backend) << "\n";
    runtime::SessionConfig config;
    config.system = tracedConfig(backend);
    config.system.numChannels = 2;
    config.system.inputRegionBytes = 2048;
    config.system.outputRegionBytes = 1024;
    config.system.faults.seed = 4242;
    config.system.faults.corruptBeatPerMillion = 12000;
    config.numSlots = 8;
    config.epochCycles = 256;
    runtime::Session session(testprogs::identity(), config);
    Rng rng(0x5e55);
    for (int j = 0; j < 20; ++j) {
        BitBuffer stream;
        uint64_t bytes = 100 + rng.nextBelow(1300);
        for (uint64_t i = 0; i < bytes; ++i)
            stream.appendBits(rng.next(), 8);
        uint64_t deadline = j % 5 == 3 ? 400 + 150 * uint64_t(j) : 0;
        session.submitAt(std::move(stream), 0, nullptr, deadline);
    }
    const RunReport &report = session.finish();
    for (const runtime::JobReport &job : session.reports()) {
        os << "job " << job.jobId << " pu " << job.pu << " ch "
           << job.channel << " arm " << job.armCycle << " retire "
           << job.retireCycle << " in " << job.streamBits << " emitted "
           << job.emittedBits << " starved " << job.inputStarvedCycles
           << " blocked " << job.outputBlockedCycles << " output "
           << bitsDigest(job.output) << " ";
        writeStatus(os, job.status);
        os << "\n";
    }
    writeRunReport(os, report);
}

/** 8 PUs on one channel, one of which spins forever: the watchdog
 * trips and its dump lists every unit's stall reason and counters. */
void
writeWatchdog(std::ostream &os, PuBackend backend)
{
    os << "== watchdog " << puBackendName(backend) << "\n";
    lang::ProgramBuilder b("spin_on_ff", 8, 8);
    lang::Value stuck = b.reg("stuck", 1, 0);
    b.if_(!b.streamFinished(), [&] {
        b.while_((stuck == 0) && (b.input() == 0xff),
                 [&] { b.assign(stuck, lang::Value::lit(0, 1)); });
        b.emit(b.input());
    });
    std::vector<BitBuffer> streams(8);
    for (int p = 0; p < 8; ++p)
        for (int i = 0; i < 40 + 90 * p; ++i)
            streams[p].appendBits(p == 5 && i == 200 ? 0xff : i + 1, 8);
    SystemConfig config = tracedConfig(backend);
    config.watchdogCycles = 2000;
    FleetSystem fleet(b.finish(), config, streams);
    writeRunReport(os, fleet.run());
    for (int p = 0; p < fleet.numPus(); ++p) {
        const PuStats &stats = fleet.puStats(p);
        os << "stats pu " << p << " finished " << stats.finishedAtCycle
           << " starved " << stats.inputStarvedCycles << " blocked "
           << stats.outputBlockedCycles << "\n";
    }
}

std::string
actualText()
{
    std::ostringstream os;
    writeApps(os);
    writeControllerModes(os);
    for (PuBackend backend :
         {PuBackend::Fast, PuBackend::Rtl, PuBackend::RtlJit})
        writeSession(os, backend);
    for (PuBackend backend : {PuBackend::Rtl, PuBackend::RtlJit})
        writeWatchdog(os, backend);
    return os.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

TEST(CrossCommitGolden, MatchesCapturedResults)
{
    const std::string actual = actualText();
    // The mix must keep exercising the paths it exists to pin.
    for (const char *needle :
         {"ParityError", "DeadlineExceeded", "OutputOverflow",
          "WatchdogStall: channel 0 made no forward progress",
          "internal-spin"}) {
        EXPECT_NE(actual.find(needle), std::string::npos) << needle;
    }

    std::ifstream in(std::string(FLEET_GOLDEN_DIR) +
                     "/cross_commit.golden");
    ASSERT_TRUE(in.good()) << "missing golden file";
    std::stringstream golden;
    golden << in.rdbuf();
    if (golden.str() == actual)
        return;

    std::ofstream("cross_commit.actual") << actual;
    std::vector<std::string> want = splitLines(golden.str());
    std::vector<std::string> got = splitLines(actual);
    std::string section;
    for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
        const std::string w = i < want.size() ? want[i] : "<eof>";
        const std::string g = i < got.size() ? got[i] : "<eof>";
        if (w.rfind("== ", 0) == 0)
            section = w;
        if (w != g) {
            FAIL() << "line " << i + 1 << " in [" << section
                   << "]\n  golden: " << w << "\n  actual: " << g
                   << "\n(full text written to cross_commit.actual)";
        }
    }
    FAIL() << "golden and actual differ only in line endings";
}

} // namespace
} // namespace system
} // namespace fleet
