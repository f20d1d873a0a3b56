#include "check/invariants.hh"

#include <algorithm>
#include <initializer_list>
#include <sstream>

#include "common/log.hh"
#include "mem/memsys.hh"
#include "verif/spec.hh"

namespace oscache
{

namespace
{

const char *
stateName(LineState st)
{
    switch (st) {
      case LineState::Invalid:
        return "I";
      case LineState::Shared:
        return "S";
      case LineState::Exclusive:
        return "E";
      case LineState::Modified:
        return "M";
    }
    return "?";
}

/** Bit of the edge @p from -> @p to in an edge matrix. */
constexpr std::uint16_t
edgeBit(LineState from, LineState to)
{
    return std::uint16_t(1u << (unsigned(from) * verif::numLineStates +
                                unsigned(to)));
}

/**
 * The secondary-line edges @p protocol can take: the union of the
 * legal, in-scheme (state, event) -> next edges of the verif schemes
 * that run under it (every MESI variant for Illinois, msi for MSI).
 * A state none of those schemes ever enters (Exclusive under MSI)
 * keeps all its exits: the edge into it is the violation, and the
 * edges out of it are not reported a second time.
 */
constexpr std::uint16_t
deriveLegalEdges(CoherenceProtocol protocol)
{
    std::uint16_t edges = 0;
    unsigned entered = 1u << unsigned(LineState::Invalid);
    for (std::size_t i = 0; i < verif::numSchemes; ++i) {
        const auto scheme = static_cast<verif::ProtoScheme>(i);
        if ((scheme == verif::ProtoScheme::Msi) !=
            (protocol == CoherenceProtocol::Msi))
            continue;
        const verif::SchemeSpec spec = verif::buildSpec(scheme);
        for (std::size_t s = 0; s < verif::numLineStates; ++s) {
            for (std::size_t e = 0; e < verif::numEvents; ++e) {
                const auto state = static_cast<LineState>(s);
                const auto event = static_cast<verif::ProtoEvent>(e);
                const verif::ProtoTransition &cell = spec.at(state, event);
                if (!cell.legal || !spec.hasEvent(event))
                    continue;
                edges |= edgeBit(state, cell.next);
                entered |= 1u << unsigned(cell.next);
            }
        }
    }
    for (std::size_t s = 0; s < verif::numLineStates; ++s) {
        if ((entered >> s) & 1u)
            continue;
        for (std::size_t t = 0; t < verif::numLineStates; ++t)
            edges |= edgeBit(LineState(s), LineState(t));
    }
    return edges;
}

/** Edges @p from -> each of @p to (pins below). */
constexpr std::uint16_t
edgesFrom(LineState from, std::initializer_list<LineState> to)
{
    std::uint16_t edges = 0;
    for (const LineState t : to)
        edges |= edgeBit(from, t);
    return edges;
}

using S = LineState;

// The derived matrices, pinned: a fill may install any state (MSI: no
// Exclusive), an upgrade S->M rides an invalidation, exclusivity is
// never gained silently (no S->E), dirty data is never dropped by a
// clean downgrade (no M->E), and every self-loop and eviction is
// legal.  Under MSI an Exclusive line is already illegal on entry.
static_assert(deriveLegalEdges(CoherenceProtocol::Illinois) ==
              (edgesFrom(S::Invalid, {S::Invalid, S::Shared, S::Exclusive,
                                      S::Modified}) |
               edgesFrom(S::Shared, {S::Invalid, S::Shared, S::Modified}) |
               edgesFrom(S::Exclusive, {S::Invalid, S::Shared,
                                        S::Exclusive, S::Modified}) |
               edgesFrom(S::Modified, {S::Invalid, S::Shared,
                                       S::Modified})));
static_assert(deriveLegalEdges(CoherenceProtocol::Msi) ==
              (edgesFrom(S::Invalid, {S::Invalid, S::Shared, S::Modified}) |
               edgesFrom(S::Shared, {S::Invalid, S::Shared, S::Modified}) |
               edgesFrom(S::Exclusive, {S::Invalid, S::Shared,
                                        S::Exclusive, S::Modified}) |
               edgesFrom(S::Modified, {S::Invalid, S::Shared,
                                       S::Modified})));

} // namespace

CoherenceChecker::CoherenceChecker(const MachineConfig &config)
    : cfg(config),
      legalEdges(deriveLegalEdges(config.protocol)),
      shadowL2(config.numCpus), shadowL1(config.numCpus),
      lastL1WbHorizon(config.numCpus, 0), lastL2WbHorizon(config.numCpus, 0)
{
    cfg.check();
    if (cfg.numCpus >= multiWriterBit)
        panic("CoherenceChecker: at most ", multiWriterBit - 1,
              " processors");
}

void
CoherenceChecker::report(CheckCode code, CpuId cpu, Addr addr,
                         std::string message)
{
    if (found.size() >= maxFindings) {
        ++suppressed;
        return;
    }
    CheckFinding f;
    f.code = code;
    f.severity = Severity::Error;
    f.cpu = cpu;
    f.addr = addr;
    f.message = std::move(message);
    found.push_back(std::move(f));
}

void
CoherenceChecker::onL2Transition(CpuId cpu, Addr l2_line, LineState from,
                                 LineState to)
{
    ++transitionCount;
    StateShadow &shadow = shadowL2[cpu];
    StateShadow::Word &slot = shadow.locate(l2_line);
    const auto recorded = LineState(StateShadow::valueOf(slot));
    if (recorded != from) {
        std::ostringstream os;
        os << "transition reports from=" << stateName(from)
           << " but the shadow recorded " << stateName(recorded);
        report(CheckCode::ShadowMismatch, cpu, l2_line, os.str());
    }
    if ((legalEdges & edgeBit(from, to)) == 0) {
        std::ostringstream os;
        os << "illegal MESI edge " << stateName(from) << "->"
           << stateName(to);
        report(CheckCode::IllegalTransition, cpu, l2_line, os.str());
    }
    if (to == LineState::Invalid)
        shadow.eraseSlot(slot);
    else
        slot = StateShadow::keyWord(l2_line) | StateShadow::Word(to);
    touched.push_back(l2_line);
    if (to == LineState::Modified) {
        WriterTable::Word &w = writers.locate(l2_line);
        const WriterTable::Word writer = WriterTable::Word(cpu) + 1;
        const WriterTable::Word seen = WriterTable::valueOf(w);
        if (seen == 0)
            w |= writer;
        else if ((seen & ~multiWriterBit) != writer)
            w |= multiWriterBit;
    }
}

void
CoherenceChecker::onL1Fill(CpuId cpu, Addr l1_line)
{
    shadowL1[cpu].locate(l1_line);
    touched.push_back(alignDown(l1_line, Addr{cfg.l2LineSize}));
}

void
CoherenceChecker::onL1Drop(CpuId cpu, Addr l1_line)
{
    shadowL1[cpu].erase(l1_line);
}

std::vector<Addr>
CoherenceChecker::multiWriterLines() const
{
    std::vector<Addr> lines;
    writers.forEach([&lines](WriterTable::Word w) {
        if ((w & multiWriterBit) != 0)
            lines.push_back(WriterTable::keyOf(w));
    });
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
CoherenceChecker::checkLine(const MemorySystem &mem, Addr l2_line)
{
    unsigned owners = 0;
    unsigned sharers = 0;
    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        const LineState st = mem.l2State(c, l2_line);
        if (st == LineState::Modified || st == LineState::Exclusive)
            ++owners;
        else if (st == LineState::Shared)
            ++sharers;
        if (st == LineState::Invalid) {
            // Inclusion: no covered primary line may survive.
            for (std::uint32_t off = 0; off < cfg.l2LineSize;
                 off += cfg.l1LineSize) {
                if (mem.l1Contains(c, l2_line + off))
                    report(CheckCode::InclusionViolation, c, l2_line + off,
                           "primary-resident line has no secondary copy");
            }
        }
    }
    if (owners > 1)
        report(CheckCode::SwmrViolation, 0, l2_line,
               "more than one Modified/Exclusive copy machine-wide");
    else if (owners == 1 && sharers > 0)
        report(CheckCode::SwmrViolation, 0, l2_line,
               "an exclusive owner coexists with sharers");
}

void
CoherenceChecker::onOperationEnd(const MemorySystem &mem, MemOpKind op,
                                 CpuId cpu, Addr addr)
{
    if (touched.size() > 1) {
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
    }
    for (const Addr line : touched)
        checkLine(mem, line);
    touched.clear();

    if (op == MemOpKind::Write) {
        const LineState st = mem.l2State(cpu, addr);
        const bool owned = st == LineState::Modified;
        const bool updated =
            st == LineState::Shared && mem.isUpdateAddr(addr);
        if (!owned && !updated) {
            std::ostringstream os;
            os << "write completed with line " << stateName(st)
               << " instead of Modified (or Shared on an update page)";
            report(CheckCode::OwnershipViolation, cpu, addr, os.str());
        }
    }

    const WriteBuffer &wb1 = mem.l1WriteBuffer(cpu);
    const WriteBuffer &wb2 = mem.l2WriteBuffer(cpu);
    if (!wb1.drainOrderConsistent())
        report(CheckCode::WriteBufferInconsistency, cpu, addr,
               "L1-to-L2 write buffer drains out of FIFO order");
    if (!wb2.drainOrderConsistent())
        report(CheckCode::WriteBufferInconsistency, cpu, addr,
               "L2-to-bus write buffer drains out of FIFO order");
    if (wb1.lastCompletion() < lastL1WbHorizon[cpu])
        report(CheckCode::WriteBufferInconsistency, cpu, addr,
               "L1-to-L2 write buffer completion horizon moved backwards");
    if (wb2.lastCompletion() < lastL2WbHorizon[cpu])
        report(CheckCode::WriteBufferInconsistency, cpu, addr,
               "L2-to-bus write buffer completion horizon moved backwards");
    lastL1WbHorizon[cpu] = wb1.lastCompletion();
    lastL2WbHorizon[cpu] = wb2.lastCompletion();
}

void
CoherenceChecker::auditFull(const MemorySystem &mem)
{
    touched.clear();
    std::vector<Addr> all_lines;
    for (CpuId c = 0; c < cfg.numCpus; ++c) {
        const StateShadow &shadow = shadowL2[c];
        // Actual -> shadow: every resident line must be shadowed with
        // the same state.
        for (const Addr line : mem.l2Cache(c).residentLines()) {
            all_lines.push_back(line);
            const LineState actual = mem.l2State(c, line);
            const StateShadow::Word *w = shadow.find(line);
            if (w == nullptr) {
                report(CheckCode::ShadowMismatch, c, line,
                       "resident secondary line was never reported to "
                       "the observer");
            } else if (LineState(StateShadow::valueOf(*w)) != actual) {
                std::ostringstream os;
                os << "secondary line is " << stateName(actual)
                   << " but the shadow recorded "
                   << stateName(LineState(StateShadow::valueOf(*w)));
                report(CheckCode::ShadowMismatch, c, line, os.str());
            }
        }
        // Shadow -> actual: no phantom entries.
        shadow.forEach([&](StateShadow::Word w) {
            const Addr line = StateShadow::keyOf(w);
            if (mem.l2State(c, line) == LineState::Invalid) {
                std::ostringstream os;
                os << "shadow holds "
                   << stateName(LineState(StateShadow::valueOf(w)))
                   << " for a line the secondary cache lost";
                report(CheckCode::ShadowMismatch, c, line, os.str());
            }
        });

        // Primary shadow cross-check and direct inclusion: a primary
        // line whose covering secondary line is resident nowhere
        // would escape the union walk below.
        std::vector<Addr> actual_l1 = mem.l1Cache(c).residentLines();
        std::sort(actual_l1.begin(), actual_l1.end());
        for (const Addr line : actual_l1) {
            if (!shadowL1[c].contains(line))
                report(CheckCode::ShadowMismatch, c, line,
                       "resident primary line was never reported to "
                       "the observer");
            if (mem.l2State(c, line) == LineState::Invalid)
                report(CheckCode::InclusionViolation, c, line,
                       "primary-resident line has no secondary copy");
        }
        shadowL1[c].forEach([&](LineSet::Word w) {
            const Addr line = LineSet::keyOf(w);
            if (!std::binary_search(actual_l1.begin(), actual_l1.end(),
                                    line))
                report(CheckCode::ShadowMismatch, c, line,
                       "shadow holds a primary line the cache lost");
        });
    }
    std::sort(all_lines.begin(), all_lines.end());
    all_lines.erase(std::unique(all_lines.begin(), all_lines.end()),
                    all_lines.end());
    for (const Addr line : all_lines)
        checkLine(mem, line);
}

} // namespace oscache
