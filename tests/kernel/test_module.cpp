// Tests for the Module base class (sc_module-like container) and for
// building hierarchical hardware blocks out of it.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "kernel/module.hpp"
#include "kernel/simulator.hpp"

namespace k = rtsc::kernel;
using k::Simulator;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

/// Unbounded token queue between processes: read() blocks until a token
/// has been written.
class Queue {
public:
    explicit Queue(const std::string& name) : written_(name + ".written") {}

    void write(int v) {
        tokens_.push_back(v);
        written_.notify_delta();
    }

    [[nodiscard]] int read() {
        while (tokens_.empty()) k::wait(written_);
        const int v = tokens_.front();
        tokens_.pop_front();
        return v;
    }

private:
    std::deque<int> tokens_;
    k::Event written_;
};

/// A small hardware block: doubles every input token after a fixed delay.
class Doubler final : public k::Module {
public:
    Doubler(std::string name, Queue& in, Queue& out, Time delay)
        : Module(std::move(name)), in_(in), out_(out), delay_(delay),
          main_(spawn_thread("main", [this] {
              for (;;) {
                  const int v = in_.read();
                  k::wait(delay_);
                  out_.write(2 * v);
              }
          })) {}

    [[nodiscard]] const k::Process& main_process() const { return main_; }

private:
    Queue& in_;
    Queue& out_;
    Time delay_;
    k::Process& main_;
};

} // namespace

TEST(ModuleTest, NamesAndSimulatorBinding) {
    Simulator sim;
    Queue in("in"), out("out");
    Doubler d("doubler", in, out, 5_us);
    EXPECT_EQ(d.name(), "doubler");
    EXPECT_EQ(&d.simulator(), &sim);
    // The spawned process carries the hierarchical name.
    EXPECT_EQ(sim.process_count(), 1u);
    EXPECT_EQ(d.main_process().name(), "doubler.main");
    EXPECT_EQ(&d.main_process().simulator(), &sim);
}

TEST(ModuleTest, PipelineOfModules) {
    Simulator sim;
    Queue a("a"), b("b"), c("c");
    Doubler first("first", a, b, 3_us);
    Doubler second("second", b, c, 3_us);
    std::vector<int> results;
    std::vector<Time> at;
    sim.spawn("source", [&] {
        for (int i = 1; i <= 3; ++i) a.write(i);
    });
    sim.spawn("sink", [&] {
        for (int i = 0; i < 3; ++i) {
            results.push_back(c.read());
            at.push_back(sim.now());
        }
    });
    sim.run();
    EXPECT_EQ(results, (std::vector<int>{4, 8, 12}));
    // First token: 3us + 3us pipeline latency.
    EXPECT_EQ(at[0], 6_us);
    // Steady state: one token per 3us (pipelined).
    EXPECT_EQ(at[1], 9_us);
    EXPECT_EQ(at[2], 12_us);
}
