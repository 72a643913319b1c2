/**
 * @file
 * Shared machinery of the four log-backed baselines (Opt-Redo,
 * Opt-Undo, LSM and OSP).
 *
 * The schemes differ only in their logging policy: what they append,
 * when commit is durable, and how dead entries leave the ring. All of
 * the surrounding machinery lives here once: the LogRegion ring and the
 * per-core transaction write buffers, capacity-degradation admission,
 * the background scrub pass, the epoch gauges, the commit-record
 * append, the log-full stall, the periodic-or-3/4-full maintenance
 * trigger and the redo-style replay. A scheme supplies its compaction
 * step (compact()) and its commit path.
 */

#ifndef HOOPNVM_BASELINES_LOG_CONTROLLER_HH
#define HOOPNVM_BASELINES_LOG_CONTROLLER_HH

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/log_region.hh"
#include "controller/persistence_controller.hh"

namespace hoopnvm
{

/** Buffered image of one line touched by a transaction. */
struct LineImage
{
    std::uint8_t mask = 0;
    std::array<std::uint64_t, kWordsPerLine> words{};

    void
    setWord(unsigned idx, std::uint64_t v)
    {
        words[idx] = v;
        mask |= static_cast<std::uint8_t>(1u << idx);
    }

    /** Overlay this image's valid words onto @p buf (a full line). */
    void overlay(std::uint8_t *buf) const;

    /** Merge @p other on top of this image. */
    void merge(const LineImage &other);
};

/** A persistence controller built around one durable LogRegion. */
class LogController : public PersistenceController
{
  public:
    /** Admission check, then open the region and clear its buffer. */
    TxId txBegin(CoreId core, Tick now) override;

    /** Buffer the word in the running transaction's write set, at one
     *  core cycle (redo and OSP write nothing durable before commit). */
    Tick storeWord(CoreId core, Addr addr, const std::uint8_t *data,
                   Tick now) override;

    /**
     * Periodic-or-3/4-full trigger of compact(): fires every
     * cfg.gcPeriod and whenever log occupancy reaches 3/4.
     */
    void maintenance(Tick now) override;

    /** Next periodic trigger tick of the maintenance hook. */
    Tick
    nextMaintenanceDue() const override
    {
        return lastMaintenance_ + cfg.gcPeriod;
    }

    Tick scrub(Tick now) override;
    ControllerGauges sampleGauges() const override;

    /** Drop the volatile transaction buffers and region state. */
    void crash() override;

    /** Home copy of @p line plus open transactions' buffered words. */
    void debugReadLine(Addr line, std::uint8_t *buf) const override;

    /** Declares "log-retire-bitmap" when slot retirement is live;
     *  schemes declare their own rules first, then call this. */
    void declareOrderingRules(OrderingTracker &t) override;

    /** Forward the tracker to the log's retirement machinery. */
    void setOrderingTracker(OrderingTracker *t) override;

    /** Free log-ring slots: wear-out fault-injection targets. */
    std::vector<std::pair<Addr, Addr>>
    freeMediaRanges() const override
    {
        return log_.freeSlotRanges();
    }

    LogRegion &log() { return log_; }

  protected:
    /**
     * @param name            Stats prefix; the ring is named name_log.
     * @param logBase         First byte of the ring's area.
     * @param logBytes        Size of the ring's area.
     * @param degradedDetail  TxRejected detail of a CapacityDegraded
     *                        admission reject (a string literal).
     * @param wedgedDetail    TxRejected detail of a LogExhausted reject
     *                        (a string literal).
     */
    LogController(const std::string &name, NvmDevice &nvm,
                  const SystemConfig &cfg, Addr logBase,
                  std::uint64_t logBytes, const char *degradedDetail,
                  const char *wedgedDetail);

    /**
     * The scheme's compaction step: drop the log entries that no
     * longer protect anything (after migrating their data home, if the
     * scheme needs to). May fire GcStep crash points.
     * @return Completion tick of the compaction's traffic (>= now).
     */
    virtual Tick compact(Tick now) = 0;

    /**
     * Make room for one append: if the ring is full, stall for
     * compaction (counted as backpressure) and reject the transaction
     * with LogExhausted if that frees nothing.
     * @return @p now, or the compaction's completion if it stalled.
     */
    Tick
    waitForLogSlot(Tick now)
    {
        return log_.full() ? std::max(now, stallForLogSpace(now)) : now;
    }

    /** Append @p tx's commit record issued at @p now.
     *  @return Completion tick of the record write. */
    Tick appendCommitRecord(Tick now, TxId tx, std::uint64_t commitId);

    /** Count and throw the LogExhausted reject. */
    [[noreturn]] void rejectWedged();

    /**
     * Recovery of the redo-style logs (Opt-Redo, LSM): adopt the
     * durable retirement bitmap, replay every committed @p type image
     * onto home in commit order, then clear the log. Uncommitted
     * images are discarded.
     * @return Modelled single-threaded replay time: channel transfer
     *         plus @p perEntry per scanned entry.
     */
    Tick replayCommitted(LogEntryType type, Tick perEntry);

    /** True when log occupancy reached the 3/4 maintenance threshold. */
    bool
    logPressured() const
    {
        return log_.size() * 4 >= log_.capacity() * 3;
    }

    /**
     * Arm maintenancePressure() when log occupancy crosses the
     * maintenance threshold; called after every append burst so the
     * engine's event-driven poll skip never misses pressure onset.
     */
    void
    markLogPressure()
    {
        if (logPressured())
            maintDirty_ = true;
    }

    /** True while any core has a failure-atomic region open. */
    bool anyTxOpen() const;

    /** True when an open transaction has buffered words of @p line. */
    bool openTxWrites(Addr line) const;

    /**
     * Overlay every open transaction's buffered words of @p line onto
     * @p buf. With @p fr, fold their word mask into fr->wordMask, name
     * the owning transaction, and mark the fill dirty and persistent
     * when any word (including ones the caller folded in) is newer
     * than home.
     */
    void overlayOpenTxWrites(Addr line, std::uint8_t *buf,
                             FillResult *fr = nullptr) const;

    LogRegion log_;

    /** Per-core words of the running transaction. */
    std::vector<std::unordered_map<Addr, LineImage>> txWrites;

    /** Completion tick of each core's newest posted log write (the
     *  Opt-Redo and Opt-Undo commits wait for it). */
    std::vector<Tick> outstanding;

    // Hot-path counters resolved once against the inherited stats_.
    Counter &txCommittedC_;
    Counter &txRejectedC_;
    Counter &logBackpressureStallsC_;
    Counter &recoveriesC_;

  private:
    /** The log-full stall of waitForLogSlot(). */
    Tick stallForLogSpace(Tick now);

    const char *degradedDetail_;
    const char *wedgedDetail_;

    /** Tick of the last periodic maintenance trigger. */
    Tick lastMaintenance_ = 0;

    Counter &scrubCorrectedC_;
    Counter &scrubPassesC_;
    Histogram &scrubPauseH_;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_LOG_CONTROLLER_HH
