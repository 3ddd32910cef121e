#ifndef FLEET_SYSTEM_DEVICE_H
#define FLEET_SYSTEM_DEVICE_H

/**
 * @file
 * The device abstraction (ISSUE 10): one simulated FPGA card — a fixed
 * pool of processing-unit slots behind the session-mode protocol that
 * runtime::Session speaks. Extracted from FleetSystem so the cluster
 * layer (src/cluster) can treat "a device" as an interface: a Cluster
 * owns N Devices plus the inter-device links and re-exports the same
 * protocol under global slot indices, and the runtime above it never
 * cares whether a slot lives on device 0 or device 7.
 *
 * Everything here is *simulated-state only*: a Device implementation
 * must keep the contract that armJob / stepEpoch / retireJob outcomes
 * are a pure function of (programs, config, arm sequence) — bit
 * identical across host thread counts and PU backends — or every
 * determinism fence above it breaks. FleetSystem (fleet_system.h) is
 * the one real implementation; the interface is the seam where a
 * remote device, an RTL-cosimulated card, or a recorded replay could
 * plug in without touching the runtime.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "system/channel_shard.h"
#include "system/run_report.h"
#include "trace/trace.h"
#include "util/bitbuf.h"
#include "util/status.h"

namespace fleet {
namespace system {

enum class PuBackend
{
    Fast, ///< Functional-trace replay (cross-checked against the RTL
          ///< engines).
    Rtl,  ///< Compiled RTL: optimizer + op tape, evaluated batched
          ///< (structure-of-arrays) across each channel's PUs. The
          ///< default cycle-accurate backend.
    RtlInterp, ///< Per-node RTL interpreter (the reference engine).
    RtlJit, ///< Compiled RTL lowered to native code (rtl/jit.h): each
            ///< channel's PU population runs a shared-object kernel
            ///< generated and compiled at construction (arm) time,
            ///< bit-identical to Rtl/RtlInterp. A group whose kernel
            ///< cannot be built (no host toolchain, FLEET_JIT_DISABLE)
            ///< runs as a plain Rtl batch instead (slotBackend()
            ///< reports the backend actually used).
};

/**
 * Session mode, multi-program hosting (ISSUE 8): which compiled program
 * a slot pre-arms, which placement lane it belongs to, and optionally a
 * per-slot PU backend override. All three are pure configuration —
 * frozen at construction and never derived from runtime state — so
 * schedules stay bit-identical across host thread counts and the
 * cross-backend fences hold.
 */
struct SlotBinding
{
    /** Index into the session's program list. */
    uint32_t program = 0;
    /**
     * Placement-lane label the scheduler's JobTag::preferredLane hints
     * match against (e.g. lane 0 = latency-critical Fast slots, lane 1
     * = audit Rtl slots). Never inspected by the simulator itself.
     */
    int lane = 0;
    /** Per-slot backend; empty = SystemConfig::backend. */
    std::optional<PuBackend> backend;
};

struct SystemStats
{
    uint64_t cycles = 0;
    uint64_t inputBytes = 0;
    uint64_t outputBytes = 0;
    double clockMHz = 125.0;
    /** Host worker threads the run actually used. */
    int threadsUsed = 1;
    /** Host wall-clock seconds spent inside run(). */
    double wallSeconds = 0.0;
    /** Per-channel utilization breakdown, indexed by channel. */
    std::vector<ChannelStats> channels;

    double seconds() const { return cycles / (clockMHz * 1e6); }
    /** Input-side processing throughput (the paper's headline metric). */
    double inputGBps() const
    {
        return inputBytes / seconds() / 1e9;
    }
    double outputGBps() const { return outputBytes / seconds() / 1e9; }
    double bytesPerCycle() const
    {
        return cycles ? double(inputBytes) / double(cycles) : 0.0;
    }
};

/**
 * One simulated device's session-mode protocol (see FleetSystem for
 * the authoritative per-method documentation). Slot indices are local
 * to the device; the cluster layer maps global indices down.
 */
class Device
{
  public:
    virtual ~Device() = default;

    /** Start the session clock: beginRun on every shard. */
    virtual void beginSession() = 0;

    /** Arm a parked slot with a job (errors returned, not thrown). */
    virtual Status armJob(int pu, BitBuffer stream, uint64_t job_id) = 0;

    /** Step every Active shard up to `epoch_cycles` cycles. */
    virtual void stepEpoch(uint64_t epoch_cycles) = 0;

    /** True once `pu`'s armed job drained (output readable). */
    virtual bool puDrained(int pu) const = 0;

    /** Shard state of the channel owning `pu`. */
    virtual ShardState puShardState(int pu) const = 0;
    /** The halt status of the channel owning `pu` (Ok if healthy). */
    virtual const Status &puShardStatus(int pu) const = 0;

    /** A drained job's flushed output (read before retireJob). */
    virtual BitBuffer jobOutput(int pu) const = 0;

    /** Retire a drained job and park the slot. */
    virtual RetiredJob retireJob(int pu) = 0;

    /** Abandon `pu`'s in-flight job with `status`. */
    virtual Status cancelJob(int pu, Status status) = 0;

    /** Force channel `c` into the Halted state with `status`. */
    virtual void forceHaltChannel(int c, Status status) = 0;

    /** Settle every shard and assemble the session RunReport. */
    virtual const RunReport &finishSession() = 0;

    /** Attach scheduler-level tracks (call before finishSession). */
    virtual void setSessionTracks(
        std::vector<trace::CounterTrack> tracks) = 0;

    virtual SystemStats stats() const = 0;

    virtual int numPus() const = 0;
    virtual int numShards() const = 0;
    /** The memory channel that owns `pu`. */
    virtual int puChannel(int pu) const = 0;

    virtual int numPrograms() const = 0;
    virtual uint32_t slotProgramIndex(int pu) const = 0;
    virtual int slotLane(int pu) const = 0;
    virtual PuBackend slotBackend(int pu) const = 0;

    /** Live cycle count of channel `c`'s shard (the session clock is
     * the max over shards — see sessionCycles). */
    virtual uint64_t shardCycles(int c) const = 0;

    /** The device's session clock: max over its shards so far. */
    uint64_t sessionCycles() const
    {
        uint64_t max_cycles = 0;
        for (int c = 0; c < numShards(); ++c) {
            uint64_t cycles = shardCycles(c);
            if (cycles > max_cycles)
                max_cycles = cycles;
        }
        return max_cycles;
    }
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_DEVICE_H
