#include "trace/constraints.hpp"

#include <ostream>

namespace rtsc::trace {

namespace k = rtsc::kernel;

void ConstraintMonitor::require_response(rtos::Task& task, k::Time bound,
                                         std::string name) {
    if (name.empty()) name = "response(" + task.name() + ")";
    task.processor().add_observer(*this);
    response_rules_.push_back({&task, bound, std::move(name), false, {}});
}

void ConstraintMonitor::require_latency(std::string name, mcse::Relation& from,
                                        mcse::AccessKind from_kind,
                                        mcse::Relation& to,
                                        mcse::AccessKind to_kind,
                                        k::Time bound) {
    from.add_observer(*this);
    to.add_observer(*this);
    latency_rules_.push_back(
        {std::move(name), &from, from_kind, &to, to_kind, bound, {}});
}

void ConstraintMonitor::on_task_state(const rtos::Task& task,
                                      rtos::TaskState from,
                                      rtos::TaskState to) {
    const rtos::JobEdge edge = rtos::job_edge(task, from, to);
    if (edge == rtos::JobEdge::none) return;
    for (ResponseRule& rule : response_rules_) {
        if (rule.task != &task) continue;
        const k::Time now = task.processor().simulator().now();
        if (edge == rtos::JobEdge::release) {
            rule.active = true;
            rule.released = now;
            continue;
        }
        if (!rule.active) continue;
        rule.active = false;
        ++checks_;
        const k::Time response = now - rule.released;
        // A kill/crash ends the task from *any* state: an open response
        // episode can never complete, so it is closed as a violation.
        if (edge == rtos::JobEdge::abort)
            add_violation({rule.name + " [killed]", now, response, rule.bound,
                           rule.task});
        else if (response > rule.bound)
            add_violation({rule.name, now, response, rule.bound, rule.task});
    }
}

void ConstraintMonitor::on_access(const mcse::Relation& rel,
                                  const rtos::Task* /*task*/,
                                  mcse::AccessKind kind, bool /*blocked*/) {
    const k::Time now = kernel::Simulator::current().now();
    for (LatencyRule& rule : latency_rules_) {
        if (rule.from == &rel && rule.from_kind == kind)
            rule.pending.push_back(now);
        if (rule.to == &rel && rule.to_kind == kind && !rule.pending.empty()) {
            const k::Time started = rule.pending.front();
            rule.pending.erase(rule.pending.begin());
            ++checks_;
            const k::Time latency = now - started;
            if (latency > rule.bound)
                add_violation({rule.name, now, latency, rule.bound, nullptr});
        }
    }
}

void ConstraintMonitor::add_violation(Violation v) {
    violations_.push_back(std::move(v));
    if (on_violation_) on_violation_(violations_.back());
}

void ConstraintMonitor::print(std::ostream& os) const {
    os << "timing constraints: " << checks_ << " checks, "
       << violations_.size() << " violation(s)\n";
    for (const auto& v : violations_) {
        os << "  VIOLATION " << v.constraint << " at " << v.at.to_string()
           << ": measured " << v.measured.to_string() << " > bound "
           << v.bound.to_string() << "\n";
    }
}

} // namespace rtsc::trace
