#include "explore/decision.hpp"

#include <algorithm>
#include <stdexcept>

#include "fuzz/runner.hpp" // fnv1a
#include "fuzz/spec.hpp"   // parse_decimal
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::explore {

std::string to_text(const DecisionTrace& trace) {
    std::string out;
    for (const auto& [cpu, slots] : trace) {
        if (slots.empty()) continue;
        if (!out.empty()) out += ';';
        out += cpu + ":";
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (i != 0) out += ',';
            out += std::to_string(slots[i]);
        }
    }
    return out.empty() ? "-" : out;
}

DecisionTrace trace_from_text(const std::string& text) {
    DecisionTrace trace;
    if (text.empty() || text == "-") return trace;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t end = std::min(text.find(';', pos), text.size());
        const std::string part = text.substr(pos, end - pos);
        const std::size_t colon = part.find(':');
        if (colon == std::string::npos || colon == 0)
            throw std::runtime_error("bad decision trace segment: " + part);
        const std::string cpu = part.substr(0, colon);
        std::vector<std::uint32_t>& slots = trace[cpu];
        std::size_t p = colon + 1;
        while (p <= part.size()) {
            const std::size_t comma = std::min(part.find(',', p), part.size());
            const std::string num = part.substr(p, comma - p);
            const auto slot = fuzz::parse_decimal<std::uint32_t>(num);
            if (!slot)
                throw std::runtime_error("bad decision trace slot: '" + num +
                                         "' in " + part);
            slots.push_back(*slot);
            p = comma + 1;
        }
        pos = end + 1;
    }
    return trace;
}

std::vector<std::string> decision_rows(const DecisionLog& log) {
    // Group by CPU (name order), keep observation order within each CPU.
    std::vector<std::string> cpus;
    for (const Decision& d : log)
        if (std::find(cpus.begin(), cpus.end(), d.cpu) == cpus.end())
            cpus.push_back(d.cpu);
    std::sort(cpus.begin(), cpus.end());
    std::vector<std::string> rows;
    rows.reserve(log.size());
    for (const std::string& cpu : cpus)
        for (const Decision& d : log)
            if (d.cpu == cpu)
                rows.push_back(cpu + " at=" + std::to_string(d.at_ps) +
                               " task=" + d.task + (d.front ? " front" : "") +
                               " n=" + std::to_string(d.n) +
                               " chosen=" + std::to_string(d.chosen));
    return rows;
}

std::string log_to_text(const DecisionLog& log) {
    std::string out;
    for (const Decision& d : log) {
        out += d.cpu + " at=" + std::to_string(d.at_ps) + " task=" + d.task +
               (d.front ? " front" : "") + " n=" + std::to_string(d.n) +
               " chosen=" + std::to_string(d.chosen) +
               (d.forced ? " forced" : "") + (d.mattered ? " mattered" : "") +
               " group=[";
        for (std::size_t i = 0; i < d.group.size(); ++i)
            out += (i != 0 ? " " : "") + d.group[i];
        out += "]\n";
    }
    return out;
}

std::uint64_t log_digest(const DecisionLog& log) {
    std::uint64_t h = fuzz::kFnvOffset;
    for (const std::string& row : decision_rows(log)) h = fuzz::fnv1a(h, row);
    return h;
}

std::size_t TraceOracle::choose_ready_insert(const rtos::ReadyInsertDecision& d,
                                             std::size_t preset) {
    const std::string& cpu = d.cpu.name();
    const std::size_t index = cursor_[cpu]++;
    std::size_t slot = preset;
    bool forced = false;
    if (prefix_ != nullptr) {
        const auto it = prefix_->find(cpu);
        if (it != prefix_->end() && index < it->second.size()) {
            forced = true;
            slot = it->second[index];
            if (slot > d.window_len) {
                if (replay_error_.empty())
                    replay_error_ =
                        "prescribed slot " + std::to_string(slot) +
                        " exceeds window " + std::to_string(d.window_len) +
                        " (cpu=" + cpu + " decision #" +
                        std::to_string(index) + " task=" + d.task.name() + ")";
                slot = preset;
            }
        }
    }
    Decision rec;
    rec.cpu = cpu;
    rec.task = d.task.name();
    rec.at_ps = d.at.raw_ps();
    rec.front = d.front;
    rec.n = static_cast<std::uint32_t>(d.window_len + 1);
    rec.chosen = static_cast<std::uint32_t>(slot);
    rec.preset = static_cast<std::uint32_t>(preset);
    rec.forced = forced;
    rec.group.reserve(d.window_len + 1);
    for (std::size_t i = 0; i < d.window_len; ++i)
        rec.group.push_back(d.window[i]->name());
    rec.group.push_back(d.task.name());
    groups_[cpu].push_back({log_.size(), rec.group});
    log_.push_back(std::move(rec));
    return slot;
}

void TraceOracle::on_dispatch(rtos::Processor& cpu, rtos::Task& winner,
                              const rtos::ReadyQueue& remaining) {
    const auto git = groups_.find(cpu.name());
    if (git == groups_.end()) return;
    const std::string& won = winner.name();
    for (const Group& g : git->second) {
        if (log_[g.log_index].mattered) continue;
        if (std::find(g.members.begin(), g.members.end(), won) ==
            g.members.end())
            continue;
        // The winner belonged to this tie-break group; if another member is
        // still waiting in the queue, their relative order decided who won.
        for (const rtos::Task* r : remaining) {
            if (r->name() != won && std::find(g.members.begin(),
                                              g.members.end(),
                                              r->name()) != g.members.end()) {
                log_[g.log_index].mattered = true;
                break;
            }
        }
    }
}

void TraceOracle::on_order_consumed(rtos::Processor& cpu) {
    const auto git = groups_.find(cpu.name());
    if (git == groups_.end()) return;
    for (const Group& g : git->second) log_[g.log_index].mattered = true;
}

} // namespace rtsc::explore
