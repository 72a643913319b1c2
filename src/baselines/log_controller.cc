#include "baselines/log_controller.hh"

#include <cstring>
#include <map>
#include <unordered_map>
#include <vector>

#include "analysis/ordering_tracker.hh"
#include "common/errors.hh"

namespace hoopnvm
{

void
LineImage::overlay(std::uint8_t *buf) const
{
    for (unsigned i = 0; i < kWordsPerLine; ++i) {
        if (mask & (1u << i))
            std::memcpy(buf + i * kWordSize, &words[i], kWordSize);
    }
}

void
LineImage::merge(const LineImage &other)
{
    for (unsigned i = 0; i < kWordsPerLine; ++i) {
        if (other.mask & (1u << i))
            setWord(i, other.words[i]);
    }
}

LogController::LogController(const std::string &name, NvmDevice &nvm,
                             const SystemConfig &cfg_, Addr logBase,
                             std::uint64_t logBytes,
                             const char *degradedDetail,
                             const char *wedgedDetail)
    : PersistenceController(name, nvm, cfg_),
      log_(nvm, logBase, logBytes, name + "_log", &cfg_),
      txWrites(cfg_.numCores),
      outstanding(cfg_.numCores, 0),
      txCommittedC_(stats_.counter("tx_committed")),
      txRejectedC_(stats_.counter("tx_rejected")),
      logBackpressureStallsC_(stats_.counter("log_backpressure_stalls")),
      recoveriesC_(stats_.counter("recoveries")),
      degradedDetail_(degradedDetail),
      wedgedDetail_(wedgedDetail),
      scrubCorrectedC_(stats_.counter("scrub_corrected_words")),
      scrubPassesC_(stats_.counter("scrub_passes")),
      scrubPauseH_(stats_.histogram("scrub_pause_ticks"))
{
}

void
LogController::declareOrderingRules(OrderingTracker &t)
{
    // Declared only when the subsystem can fire it: a rule that cannot
    // fire would (correctly) be reported dead by clean-run sweeps.
    if (cfg.ft.enabled) {
        t.rule("log-retire-bitmap")
            .requiresSettled("the durable slot-retirement bitmap before "
                             "the retirement is acted upon");
    }
}

void
LogController::setOrderingTracker(OrderingTracker *t)
{
    PersistenceController::setOrderingTracker(t);
    log_.setOrdering(t);
}

TxId
LogController::txBegin(CoreId core, Tick now)
{
    // Graceful degradation: once slot retirement has eaten past the
    // configured fraction of the log ring, stop admitting transactions
    // (ENOSPC-style) instead of wedging mid-commit.
    if (cfg.ft.enabled &&
        log_.degradedFraction() >= cfg.ft.rejectCapacityFraction) {
        txRejectedC_ += 1;
        throw TxRejected{RejectCause::CapacityDegraded, degradedDetail_};
    }
    const TxId tx = PersistenceController::txBegin(core, now);
    txWrites[core].clear();
    outstanding[core] = now;
    return tx;
}

Tick
LogController::storeWord(CoreId core, Addr addr,
                         const std::uint8_t *data, Tick now)
{
    std::uint64_t value;
    std::memcpy(&value, data, kWordSize);
    const Addr line = lineAddr(addr);
    txWrites[core][line].setWord(
        static_cast<unsigned>((addr - line) / kWordSize), value);
    (void)now;
    return cfg.cycle();
}

Tick
LogController::appendCommitRecord(Tick now, TxId tx,
                                  std::uint64_t commitId)
{
    LogEntry rec;
    rec.type = LogEntryType::Commit;
    rec.txId = tx;
    rec.commitId = commitId;
    rec.mask = 1;
    return log_.append(now, rec);
}

Tick
LogController::stallForLogSpace(Tick now)
{
    // Log full on the commit path: the writer stalls until compaction
    // frees entries (modelled backpressure, counted). If it frees
    // nothing, every live entry belongs to open transactions and no
    // progress is possible.
    ++logBackpressureStallsC_;
    const Tick done = compact(now);
    if (log_.full())
        rejectWedged();
    return done;
}

void
LogController::rejectWedged()
{
    // Degrade, don't die: the offending transaction carries no commit
    // record, so crash+recovery discards (or rolls back) it whole.
    txRejectedC_ += 1;
    throw TxRejected{RejectCause::LogExhausted, wedgedDetail_};
}

Tick
LogController::replayCommitted(LogEntryType type, Tick perEntry)
{
    // Adopt the durable slot-retirement bitmap before the scan: retired
    // slots are burned, not read — their garbage would cut the suffix.
    log_.loadRetirement();
    std::map<std::uint64_t, std::vector<LogEntry>> by_commit;
    std::unordered_map<TxId, bool> has_record;
    std::uint64_t entries = 0;
    log_.scan([&](const LogEntry &e) {
        ++entries;
        if (e.type == LogEntryType::Commit)
            has_record[e.txId] = true;
        else if (e.type == type)
            by_commit[e.commitId].push_back(e);
    });

    std::uint64_t lines = 0;
    for (const auto &kv : by_commit) {
        for (const LogEntry &e : kv.second) {
            if (!has_record.contains(e.txId))
                continue; // uncommitted: discard
            // Crash point: between replay writes. The log is cleared
            // only after the loop, so a second recovery replays the
            // same committed images idempotently.
            crashStep(CrashPointKind::RecoveryStep);
            std::uint8_t buf[kCacheLineSize];
            nvm_.peek(e.line, buf, kCacheLineSize);
            LineImage img;
            img.mask = e.mask;
            img.words = e.words;
            img.overlay(buf);
            nvm_.poke(e.line, buf, kCacheLineSize);
            ++lines;
        }
    }
    // Crash point: replay done, log not yet cleared — re-entering
    // recovery replays everything again with the same result.
    crashStep(CrashPointKind::RecoveryStep);
    log_.clear(0);
    recoveriesC_ += 1;

    const Tick channel = nvm_.timing().transferTicks(
        entries * LogEntry::kEntryBytes + lines * kCacheLineSize);
    return channel + entries * perEntry;
}

void
LogController::maintenance(Tick now)
{
    maintDirty_ = false;
    if (now - lastMaintenance_ >= cfg.gcPeriod || logPressured()) {
        // Stay armed while compaction runs (a SimCrash unwinding out of
        // it must leave the poll re-armed), then settle to the exact
        // post-compaction occupancy predicate.
        maintDirty_ = true;
        lastMaintenance_ = now;
        compact(now);
        maintDirty_ = logPressured();
    }
}

Tick
LogController::scrub(Tick now)
{
    std::uint64_t corrected = 0;
    const Tick done =
        log_.scrubSlots(now, cfg.ft.scrubChunks, &corrected);
    scrubCorrectedC_ += corrected;
    scrubPassesC_ += 1;
    scrubPauseH_.record(done - now);
    return done;
}

ControllerGauges
LogController::sampleGauges() const
{
    ControllerGauges g;
    g.mappingEntries = log_.size();
    g.structBytes = log_.size() * LogEntry::kEntryBytes;
    g.backpressureStalls = logBackpressureStallsC_.value();
    if (log_.faultToleranceEnabled()) {
        g.retiredUnits = log_.retiredSlots();
        g.correctedWords = nvm_.faults().wordsEccCorrected();
        g.degradedFraction = log_.degradedFraction();
    }
    g.txRejected = txRejectedC_.value();
    return g;
}

void
LogController::crash()
{
    // lint: unordered-iter-ok (outer std::vector of per-core maps; clearing is order-insensitive)
    for (auto &w : txWrites)
        w.clear();
    for (auto &t : coreTx)
        t = CoreTxState{};
}

bool
LogController::anyTxOpen() const
{
    for (const auto &t : coreTx) {
        if (t.active)
            return true;
    }
    return false;
}

bool
LogController::openTxWrites(Addr line) const
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (txWrites[c].contains(line))
            return true;
    }
    return false;
}

void
LogController::overlayOpenTxWrites(Addr line, std::uint8_t *buf,
                                   FillResult *fr) const
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        auto it = txWrites[c].find(line);
        if (it == txWrites[c].end())
            continue;
        it->second.overlay(buf);
        if (fr) {
            fr->wordMask |= it->second.mask;
            fr->txId = coreTx[c].txId;
        }
    }
    if (fr && fr->wordMask) {
        fr->dirty = true;
        fr->persistent = true;
    }
}

void
LogController::debugReadLine(Addr line, std::uint8_t *buf) const
{
    nvm_.peek(line, buf, kCacheLineSize);
    overlayOpenTxWrites(line, buf);
}

} // namespace hoopnvm
