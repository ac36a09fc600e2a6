#pragma once
// Trace recorder: collects every task state transition, RTOS overhead charge
// and communication access of a simulation. The TimeLine renderer, the
// statistics report and the CSV/VCD exporters all consume its record lists.
//
// Usage:
//   trace::Recorder rec;
//   rec.attach(cpu);        // observe a Processor's tasks & overheads
//   rec.attach(queue);      // observe a communication relation
//   ... run ...
//   trace::Timeline(rec).render(std::cout);

#include <string>
#include <vector>

#include "kernel/time.hpp"
#include "mcse/relation.hpp"
#include "rtos/observer.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::trace {

class Recorder final : public rtos::Observer {
public:
    struct StateRecord {
        kernel::Time at;
        const rtos::Task* task;
        rtos::TaskState from;
        rtos::TaskState to;
    };
    struct OverheadRecord {
        kernel::Time at;
        kernel::Time duration;
        rtos::OverheadKind kind;
        const rtos::Processor* cpu;
        const rtos::Task* about; ///< may be nullptr
    };
    struct CommRecord {
        kernel::Time at;
        const mcse::Relation* relation;
        const rtos::Task* task; ///< nullptr for hardware accesses
        mcse::AccessKind kind;
        bool blocked;
    };
    /// Point event outside the task/comm model: fault injections, watchdog
    /// timeouts, deadline misses (subscribe the recorder to the fault
    /// components with their add_observer). Rendered as instant markers by
    /// the Perfetto exporter (src/obs/perfetto.hpp).
    struct MarkerRecord {
        kernel::Time at;
        std::string category; ///< e.g. "fault", "watchdog", "deadline"
        std::string name;     ///< e.g. "crash:control"
    };

    /// Observe a processor (all of its tasks, present and future).
    void attach(rtos::Processor& cpu) {
        cpu.add_observer(*this);
        processors_.push_back(&cpu);
        reserve(kDefaultReserve);
    }
    /// Observe a communication relation.
    void attach(mcse::Relation& rel) {
        rel.add_observer(*this);
        relations_.push_back(&rel);
        reserve(kDefaultReserve);
    }

    /// Pre-size the append buffers so the first thousands of records never
    /// reallocate mid-simulation; attach() applies a default, callers with
    /// a known trace volume can ask for more. Never shrinks.
    void reserve(std::size_t records) {
        states_.reserve(records);
        overheads_.reserve(records);
        comms_.reserve(records / 4);
    }

    // rtos::Observer
    void on_task_state(const rtos::Task& task, rtos::TaskState from,
                       rtos::TaskState to) override {
        states_.push_back(
            {task.processor().simulator().now(), &task, from, to});
    }
    void on_overhead(const rtos::Processor& cpu, rtos::OverheadKind kind,
                     kernel::Time start, kernel::Time duration,
                     const rtos::Task* about) override {
        overheads_.push_back({start, duration, kind, &cpu, about});
    }

    void on_access(const mcse::Relation& rel, const rtos::Task* task,
                   mcse::AccessKind kind, bool blocked) override {
        const kernel::Time at = task != nullptr
                                    ? task->processor().simulator().now()
                                    : kernel::Simulator::current().now();
        comms_.push_back({at, &rel, task, kind, blocked});
    }
    void on_marker(const std::string& category,
                   const std::string& name) override {
        markers_.push_back({kernel::Simulator::current().now(), category, name});
    }

    [[nodiscard]] const std::vector<StateRecord>& states() const noexcept {
        return states_;
    }
    [[nodiscard]] const std::vector<OverheadRecord>& overheads() const noexcept {
        return overheads_;
    }
    [[nodiscard]] const std::vector<CommRecord>& comms() const noexcept {
        return comms_;
    }
    [[nodiscard]] const std::vector<MarkerRecord>& markers() const noexcept {
        return markers_;
    }

    [[nodiscard]] const std::vector<rtos::Processor*>& processors() const noexcept {
        return processors_;
    }
    [[nodiscard]] const std::vector<mcse::Relation*>& relations() const noexcept {
        return relations_;
    }

    /// All tasks of all attached processors, in creation order.
    [[nodiscard]] std::vector<const rtos::Task*> all_tasks() const {
        std::vector<const rtos::Task*> out;
        for (const rtos::Processor* cpu : processors_)
            for (const auto& t : cpu->tasks()) out.push_back(t.get());
        return out;
    }

    void clear() {
        states_.clear();
        overheads_.clear();
        comms_.clear();
        markers_.clear();
    }

private:
    static constexpr std::size_t kDefaultReserve = 4096;

    std::vector<StateRecord> states_;
    std::vector<OverheadRecord> overheads_;
    std::vector<CommRecord> comms_;
    std::vector<MarkerRecord> markers_;
    std::vector<rtos::Processor*> processors_;
    std::vector<mcse::Relation*> relations_;
};

} // namespace rtsc::trace
