/**
 * @file
 * Opt-Redo: hardware-assisted redo logging after WrAP [13].
 *
 * Every transactionally-modified cache line is streamed into a durable
 * redo log (128 B per line: a data line plus a metadata line, as the
 * paper notes WrAP "persists both the data and metadata for a single
 * update using two cache lines"). Commit waits for the outstanding log
 * writes plus a commit record. Data reaches its home address only via
 * asynchronous checkpointing: a background pass periodically retires
 * the latest committed image of every logged line to the home region
 * and truncates the log — the scheme's unavoidable double write.
 *
 * Reads of logged-but-not-yet-checkpointed lines must consult the log
 * (Table I classifies WrAP's read latency as High).
 */

#ifndef HOOPNVM_BASELINES_REDO_CONTROLLER_HH
#define HOOPNVM_BASELINES_REDO_CONTROLLER_HH

#include "baselines/log_controller.hh"

namespace hoopnvm
{

/** Hardware redo logging with asynchronous checkpointing. */
class RedoController : public LogController
{
  public:
    RedoController(NvmDevice &nvm, const SystemConfig &cfg);

    Scheme scheme() const override { return Scheme::OptRedo; }

    Tick txEnd(CoreId core, Tick now) override;
    FillResult fillLine(CoreId core, Addr line, std::uint8_t *buf,
                        Tick now) override;
    void evictLine(CoreId core, Addr line, const std::uint8_t *data,
                   bool persistent, TxId tx, std::uint8_t word_mask,
                   Tick now) override;
    Tick drain(Tick now) override;
    Tick recover(unsigned threads) override;
    void declareOrderingRules(OrderingTracker &t) override;

  private:
    /** Truncate retired (checkpointed) log entries. */
    Tick compact(Tick now) override;

    /** Log entries that the next truncation may drop. */
    std::uint64_t truncatableEntries = 0;

    // Hot-path counters resolved once against the inherited stats_.
    Counter &logEntriesC_;
    Counter &commitRecordsC_;
    Counter &checkpointWritesC_;
    Counter &evictionsAbsorbedC_;
    Counter &homeWritebacksC_;
    Counter &truncationsC_;
};

} // namespace hoopnvm

#endif // HOOPNVM_BASELINES_REDO_CONTROLLER_HH
