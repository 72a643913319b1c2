#include "check/crash_schedule.hh"

#include "check/spec_json.hh"
#include "common/json.hh"

namespace hoopnvm
{

namespace
{

struct SchemeToken
{
    Scheme scheme;
    const char *token;
};

constexpr SchemeToken kSchemeTokens[] = {
    {Scheme::Native, "native"}, {Scheme::Hoop, "hoop"},
    {Scheme::OptRedo, "redo"},  {Scheme::OptUndo, "undo"},
    {Scheme::Osp, "osp"},       {Scheme::Lsm, "lsm"},
    {Scheme::Lad, "lad"},
};

} // namespace

const char *
schemeToken(Scheme s)
{
    for (const auto &t : kSchemeTokens) {
        if (t.scheme == s)
            return t.token;
    }
    return "unknown";
}

bool
schemeFromToken(const std::string &token, Scheme *out)
{
    for (const auto &t : kSchemeTokens) {
        if (token == t.token) {
            *out = t.scheme;
            return true;
        }
    }
    return false;
}

bool
crashPointKindFromToken(const std::string &token, CrashPointKind *out)
{
    for (unsigned k = 0; k < kNumCrashPointKinds; ++k) {
        if (token == crashPointKindToken(static_cast<CrashPointKind>(k))) {
            *out = static_cast<CrashPointKind>(k);
            return true;
        }
    }
    return false;
}

std::string
CrashSchedule::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("scheme", schemeToken(scheme));
    w.field("workload", workload);
    w.field("seed", seed);
    w.field("num_cores", numCores);
    w.field("warmup_tx", warmupTx);
    w.field("run_tx", runTx);
    w.field("recover_threads", recoverThreads);
    w.field("torn_writes", tornWrites);
    w.field("media_fault_prob", mediaFaultProb);
    w.field("runtime_fault_prob", runtimeFaultProb);
    w.field("break_commit_fence", breakCommitFence);
    w.field("ordering", ordering);
    w.key("steps");
    w.beginArray();
    for (const CrashStep &st : steps) {
        w.beginObject();
        w.field("kind", crashPointKindToken(st.kind));
        w.field("countdown", st.countdown);
        w.field("recovery_countdown", st.recoveryCountdown);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
CrashSchedule::fromJson(const std::string &text, CrashSchedule *out,
                        std::string *err)
{
    *out = CrashSchedule{};
    SpecParser p(text);

    auto step = [&] {
        CrashStep st;
        const bool ok = p.parseObject([&](const std::string &key) {
            if (key == "kind") {
                return p.parseToken(&st.kind, crashPointKindFromToken,
                                    "crash-point kind");
            }
            if (key == "countdown")
                return p.parseUnsigned(&st.countdown);
            if (key == "recovery_countdown")
                return p.parseUnsigned(&st.recoveryCountdown);
            return p.fail("unknown step key \"" + key + "\"");
        });
        if (ok)
            out->steps.push_back(st);
        return ok;
    };

    const bool ok = p.parseObject([&](const std::string &key) {
        if (key == "scheme")
            return p.parseToken(&out->scheme, schemeFromToken, "scheme");
        if (key == "workload")
            return p.parseString(&out->workload);
        if (key == "seed")
            return p.parseUnsigned(&out->seed);
        if (key == "num_cores")
            return p.parseUnsigned(&out->numCores);
        if (key == "warmup_tx")
            return p.parseUnsigned(&out->warmupTx);
        if (key == "run_tx")
            return p.parseUnsigned(&out->runTx);
        if (key == "recover_threads")
            return p.parseUnsigned(&out->recoverThreads);
        if (key == "torn_writes")
            return p.parseBool(&out->tornWrites);
        if (key == "media_fault_prob")
            return p.parseNumber(&out->mediaFaultProb);
        if (key == "runtime_fault_prob")
            return p.parseNumber(&out->runtimeFaultProb);
        if (key == "break_commit_fence")
            return p.parseBool(&out->breakCommitFence);
        if (key == "ordering")
            return p.parseBool(&out->ordering);
        if (key == "steps")
            return p.parseArray(step);
        return p.fail("unknown key \"" + key + "\"");
    });

    if (!ok && err)
        *err = p.error();
    return ok;
}

} // namespace hoopnvm
