// Simulation-kernel micro-benchmarks: the cost of the primitives everything
// else is built on — coroutine context switches, event notification, timed
// waits, and RTOS-level operations per second. Useful to judge the absolute
// simulation performance numbers of bench_engine_compare.
#include <benchmark/benchmark.h>

#include <memory>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "mcse/message_queue.hpp"
#include "rtos/processor.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

void BM_CoroutineSwitch(benchmark::State& state) {
    k::Coroutine co([] {
        for (;;) k::Coroutine::current()->yield();
    });
    for (auto _ : state) co.resume();
}
BENCHMARK(BM_CoroutineSwitch);

void BM_PingPongProcesses(benchmark::State& state) {
    // Two processes exchanging immediate notifications; measures the
    // scheduler's evaluate-phase round trip.
    const auto iterations = static_cast<int>(state.range(0));
    for (auto _ : state) {
        k::Simulator sim;
        k::Event ping("ping"), pong("pong");
        int exchanges = 0;
        sim.spawn("a", [&] {
            // Let b reach its wait first; an immediate notification with no
            // waiter is lost.
            k::wait(k::Time::zero());
            for (int i = 0; i < iterations; ++i) {
                ping.notify();
                k::wait(pong);
                ++exchanges;
            }
        });
        sim.spawn("b", [&] {
            for (int i = 0; i < iterations; ++i) {
                k::wait(ping);
                pong.notify();
            }
        });
        sim.run();
        if (exchanges != iterations) state.SkipWithError("deadlocked");
    }
    state.SetItemsProcessed(state.iterations() * iterations * 2);
}
BENCHMARK(BM_PingPongProcesses)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_TimedEventWheel(benchmark::State& state) {
    // One process sleeping repeatedly; measures the timed-queue throughput.
    const auto n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        k::Simulator sim;
        sim.spawn("sleeper", [&] {
            for (int i = 0; i < n; ++i) k::wait(1_us);
        });
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TimedEventWheel)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_RtosComputePreemptLoop(benchmark::State& state) {
    // Full RTOS round trip: interrupt -> preemption -> handler -> resume.
    const auto n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        k::Simulator sim;
        r::Processor cpu("cpu");
        cpu.set_overheads(r::RtosOverheads::uniform(1_us));
        m::Event irq("irq", m::EventPolicy::counter);
        cpu.create_task({.name = "isr", .priority = 9}, [&](r::Task& self) {
            for (;;) {
                irq.await();
                self.compute(1_us);
            }
        });
        cpu.create_task({.name = "main", .priority = 1}, [&, n](r::Task& self) {
            self.compute(Time::us(static_cast<Time::rep>(n) * 20u));
        });
        sim.spawn("hw", [&] {
            for (int i = 0; i < n; ++i) {
                k::wait(20_us);
                irq.signal();
            }
        });
        sim.run_until(Time::us(static_cast<Time::rep>(n) * 30u));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RtosComputePreemptLoop)->Arg(500)->Unit(benchmark::kMicrosecond);

void BM_MessageQueueThroughput(benchmark::State& state) {
    const auto n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        k::Simulator sim;
        r::Processor cpu("cpu");
        m::MessageQueue<int> q("q", 8);
        cpu.create_task({.name = "producer", .priority = 2}, [&, n](r::Task& self) {
            for (int i = 0; i < n; ++i) {
                self.compute(1_us);
                q.write(i);
            }
        });
        cpu.create_task({.name = "consumer", .priority = 1}, [&, n](r::Task& self) {
            for (int i = 0; i < n; ++i) {
                (void)q.read();
                self.compute(1_us);
            }
        });
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MessageQueueThroughput)->Arg(1000)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
