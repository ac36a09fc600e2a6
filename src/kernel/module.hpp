#pragma once
// Module base class: a named container for processes, in the spirit of
// sc_module (without macros). Hardware blocks and the RTOS layer's
// Processor derive from it.

#include <functional>
#include <string>
#include <utility>

#include "kernel/simulator.hpp"

namespace rtsc::kernel {

class Module {
public:
    explicit Module(std::string name)
        : sim_(Simulator::current()), name_(std::move(name)) {}

    virtual ~Module() = default;

    Module(const Module&) = delete;
    Module& operator=(const Module&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] Simulator& simulator() const noexcept { return sim_; }

protected:
    /// Spawn a process named "<module>.<suffix>" bound to a member function
    /// or any callable.
    Process& spawn_thread(const std::string& suffix, std::function<void()> body,
                          std::size_t stack_bytes = Coroutine::default_stack_bytes) {
        return sim_.spawn(name_ + "." + suffix, std::move(body), stack_bytes);
    }

private:
    Simulator& sim_;
    std::string name_;
};

} // namespace rtsc::kernel
