#pragma once
// Shared test helper: records task state transitions and overhead charges so
// tests can assert exact schedules.

#include <sstream>
#include <string>
#include <vector>

#include "rtos/observer.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::test {

struct Transition {
    kernel::Time at;
    std::string task;
    rtos::TaskState to;

    [[nodiscard]] std::string str() const {
        std::ostringstream os;
        os << at.to_string() << " " << task << "->" << rtos::to_string(to);
        return os.str();
    }
    bool operator==(const Transition&) const = default;
};

class RecordingObserver final : public rtos::Observer {
public:
    void on_task_state(const rtos::Task& task, rtos::TaskState from,
                       rtos::TaskState to) override {
        if (from == to) return; // creation announcement
        log.push_back({task.processor().simulator().now(), task.name(), to});
    }

    void on_overhead(const rtos::Processor&, rtos::OverheadKind kind,
                     kernel::Time start, kernel::Time duration,
                     const rtos::Task* about) override {
        overheads.push_back({start, duration, kind, about ? about->name() : ""});
    }

    struct Overhead {
        kernel::Time start;
        kernel::Time duration;
        rtos::OverheadKind kind;
        std::string about;
    };

    /// Transitions of one task only.
    [[nodiscard]] std::vector<Transition> of(const std::string& task) const {
        std::vector<Transition> out;
        for (const auto& t : log)
            if (t.task == task) out.push_back(t);
        return out;
    }

    [[nodiscard]] std::vector<std::string> strings() const {
        std::vector<std::string> out;
        out.reserve(log.size());
        for (const auto& t : log) out.push_back(t.str());
        return out;
    }

    std::vector<Transition> log;
    std::vector<Overhead> overheads;
};

} // namespace rtsc::test
