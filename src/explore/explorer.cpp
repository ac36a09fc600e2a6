#include "explore/explorer.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "fuzz/spec.hpp" // parse_decimal

namespace rtsc::explore {

void Explorer::expand(const DecisionTrace& parent, const RunOutcome& outcome,
                      ExploreResult& result) {
    // Per-CPU cursor into the parent's prescribed prefix: a decision is free
    // once its per-CPU index passed the prefix length.
    std::map<std::string, std::size_t> seen;
    for (std::size_t g = 0; g < outcome.log.size(); ++g) {
        const Decision& d = outcome.log[g];
        const std::size_t index = seen[d.cpu]++;
        if (d.n <= 1) continue;
        const auto pit = parent.find(d.cpu);
        const std::size_t prefix_len =
            pit == parent.end() ? 0 : pit->second.size();
        if (index < prefix_len) continue; // enumerated by an ancestor
        if (bounds_.prune && !d.mattered) {
            result.pruned_branches += d.n - 1;
            pruned_total_ += d.n - 1;
            continue;
        }
        if (g >= bounds_.max_decisions ||
            static_cast<std::size_t>(d.n) > bounds_.max_group + 1) {
            result.clipped_branches += d.n - 1;
            clipped_total_ += d.n - 1;
            continue;
        }
        for (std::uint32_t slot = 0; slot < d.n; ++slot) {
            if (slot == d.chosen) continue;
            DecisionTrace child;
            for (std::size_t i = 0; i < g; ++i)
                child[outcome.log[i].cpu].push_back(outcome.log[i].chosen);
            child[d.cpu].push_back(slot);
            frontier_.push_back(std::move(child));
        }
    }
}

ExploreResult Explorer::run() {
    ExploreResult result;
    std::uint64_t executed = 0;
    while (!frontier_.empty() && executed < bounds_.max_schedules) {
        DecisionTrace trace = std::move(frontier_.back());
        frontier_.pop_back();
        const RunOutcome outcome = check_(trace);
        ++executed;
        ++schedules_total_;
        if (bounds_.collect_digests) result.digests.push_back(outcome.digest);
        if (outcome.violation && !result.violation) {
            result.violation = true;
            result.counterexample = trace;
            result.diagnosis = outcome.diagnosis;
            if (bounds_.stop_at_violation) break;
        }
        expand(trace, outcome, result);
    }
    result.schedules = schedules_total_;
    result.pruned_branches = pruned_total_;
    result.clipped_branches = clipped_total_;
    result.complete = frontier_.empty() && clipped_total_ == 0;
    return result;
}

void Explorer::save_frontier(std::ostream& os) const {
    os << "explore-frontier v1 schedules=" << schedules_total_
       << " pruned=" << pruned_total_ << " clipped=" << clipped_total_
       << "\n";
    for (const DecisionTrace& t : frontier_) os << to_text(t) << "\n";
}

namespace {

/// The header counter `name=` (0 when absent), parsed strictly: anything
/// but an in-range decimal throws std::runtime_error naming the field and
/// its text.
std::uint64_t header_counter(const std::string& header, const std::string& name) {
    const std::size_t pos = header.find(' ' + name + '=');
    if (pos == std::string::npos) return 0;
    const std::size_t from = pos + name.size() + 2;
    const std::string text = header.substr(from, header.find(' ', from) - from);
    if (const auto v = fuzz::parse_decimal<std::uint64_t>(text)) return *v;
    throw std::runtime_error("explore-frontier: " + name +
                             "= is not a decimal count: '" + text + "'");
}

} // namespace

void Explorer::load_frontier(std::istream& is) {
    std::string line;
    if (!std::getline(is, line) ||
        line.rfind("explore-frontier v1 ", 0) != 0)
        throw std::runtime_error("not an explore-frontier v1 file");
    schedules_total_ = header_counter(line, "schedules");
    pruned_total_ = header_counter(line, "pruned");
    clipped_total_ = header_counter(line, "clipped");
    frontier_.clear();
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        frontier_.push_back(trace_from_text(line));
    }
}

} // namespace rtsc::explore
