// Auto-generated by tools/fuzz_engines --emit-test: shrunk
// counterexample where the threaded (§4.1) and procedural (§4.2)
// engines diverged. Keep as a permanent engine-equivalence
// regression test.
//
// Seed 75, found 2026-08: with formula overheads, a task whose timed wait
// expired *during* the scheduling pass triggered by its own block re-enters
// the ready queue at the instant the pass ends. The procedural engine's
// leaver thread continued inline and queued the wake before the winner's
// context-load charge; the threaded engine granted the winner first, so the
// load formula read a ready count one lower (125 ns delta per dispatch).
// Fixed by acking the synchronous leaver before granting the winner in
// ThreadedEngine::process.
#include <gtest/gtest.h>

#include "fuzz/runner.hpp"
#include "fuzz/spec.hpp"

TEST(FuzzRegression, Seed75FormulaLoadTimeoutTie) {
    const rtsc::fuzz::ModelSpec spec = rtsc::fuzz::from_text(R"spec(
model seed=75 horizon=0
cpu policy=fifo quantum=0 preemptive=1 sched=1000000 load=500000 save=500000 formula=1
sem initial=1 prio=0
task name=T1 cpu=0 prio=2 start=0 period=182000000 act=1 deadline=0 trigger=0
op d=0 kind=sem_acquire target=2 dur=741000 timeout=39000000 repeat=1
op d=0 kind=critical target=7 dur=60000000 timeout=22000000 repeat=1
op d=1 kind=sem_acquire_for target=3 dur=0 timeout=1000000 repeat=1
task name=T2 cpu=0 prio=2 start=0 period=0 act=1 deadline=0 trigger=0
)spec");
    const rtsc::fuzz::Divergence d = rtsc::fuzz::diff_engines(spec);
    EXPECT_FALSE(d.diverged) << d.to_string();
}

// Seed 8642, found 2026-10: leaving a SharedVariable::Guard scope readied a
// higher-priority waiter, which preempted the releaser inside the release;
// the fault plan's crash then killed the releaser before it ran again, and
// ProcessKilled left the guard's implicitly noexcept destructor: every leg
// called std::terminate. Fixed by making the release a suspension point
// that may raise ProcessKilled (~Guard is noexcept(false)), after its
// bookkeeping is done. Unshrunk: the shrinker cannot run a model that
// aborts the host process.
TEST(FuzzRegression, Seed8642KillDuringPreemptingGuardRelease) {
    const rtsc::fuzz::ModelSpec spec = rtsc::fuzz::from_text(R"spec(
model seed=8642 horizon=1931214532
cpu policy=edf quantum=0 preemptive=1 sched=1500000 load=0 save=500000 formula=0 fswitch=0 dvfs=-
cpu policy=edf quantum=0 preemptive=1 sched=0 load=250000 save=0 formula=0 fswitch=0 dvfs=-
sv prot=0 access=0
sv prot=1 access=0
irq cpu=1 prio=14 period=92000000 jitter=7000000 until=1102000000 cost=4000000 maxpend=0
task name=T0 cpu=0 prio=6 start=18000000 period=165000000 act=1 deadline=165000000 trigger=0
op d=0 kind=yield target=1 dur=83000 timeout=15000000 repeat=3
op d=0 kind=sv_guard target=0 dur=40000000 timeout=2000000 repeat=1
op d=1 kind=compute target=0 dur=80000000 timeout=6000000 repeat=1
op d=1 kind=compute target=4 dur=21000 timeout=28000000 repeat=1
op d=1 kind=compute target=0 dur=60000000 timeout=19000000 repeat=1
op d=1 kind=compute target=2 dur=252000 timeout=5000000 repeat=1
task name=T1 cpu=1 prio=2 start=82000000 period=95000000 act=1 deadline=95000000 trigger=0
op d=0 kind=sleep target=4 dur=34500000 timeout=15000000 repeat=1
op d=0 kind=compute target=4 dur=82250000 timeout=31000000 repeat=1
task name=T2 cpu=0 prio=7 start=0 period=400000000 act=1 deadline=400000000 trigger=0
op d=0 kind=sv_guard target=0 dur=63000000 timeout=40000000 repeat=2
op d=1 kind=compute target=7 dur=292000 timeout=8000000 repeat=1
op d=1 kind=compute target=0 dur=109000 timeout=16000000 repeat=1
op d=1 kind=compute target=7 dur=36000000 timeout=39000000 repeat=1
op d=1 kind=sleep target=5 dur=60000000 timeout=59000000 repeat=1
op d=1 kind=sleep target=2 dur=40000000 timeout=53000000 repeat=1
op d=0 kind=compute target=2 dur=30000000 timeout=39000000 repeat=2
op d=0 kind=sleep target=6 dur=618000 timeout=28000000 repeat=1
fault_jitter task=2 prob=0.76 smin=0.75 smax=1.28
fault_crash task=2 at=262000000 restart=0 delay=0
fault_drop irq=0 prob=0.17
fault_burst irq=0 prob=0.28 emin=1 emax=2
)spec");
    const rtsc::fuzz::Divergence d = rtsc::fuzz::diff_engines(spec);
    EXPECT_FALSE(d.diverged) << d.to_string();
}

// Seeds 7044 and 7592, found 2026-10: a scheduled crash landed after the
// task's body returned but before its terminal save + scheduling pass was
// paid. The crash decision read the end of the task's kernel process, which
// the procedural engine reaches after that pass and the threaded engine
// before it: the procedural engine logged a crash of a dead task and
// restarted it at retirement, the threaded engine restarted it at once.
// Fixed by crashing only a task that is not terminated() and restarting
// only after retired(). Shrunk with fuzz_engines --emit-test.
TEST(FuzzRegression, Seed7044CrashBeforeRetirement) {
    const rtsc::fuzz::ModelSpec spec = rtsc::fuzz::from_text(R"spec(
model seed=7044 horizon=0
cpu policy=cc_rm quantum=0 preemptive=1 sched=1500000 load=0 save=0 formula=0 fswitch=0 dvfs=1000000:1000,500000:800
irq cpu=0 prio=15 period=105000000 jitter=0 until=478000000 cost=2000000 maxpend=0
irq cpu=0 prio=13 period=35000000 jitter=2000000 until=1459000000 cost=8000000 maxpend=0
task name=T0 cpu=0 prio=2 start=0 period=60000000 act=1 deadline=0 trigger=0
op d=0 kind=sleep target=3 dur=11750000 timeout=54000000 repeat=1
task name=T1 cpu=0 prio=7 start=0 period=126000000 act=1 deadline=0 trigger=0
op d=0 kind=critical target=1 dur=67000 timeout=34000000 repeat=1
op d=1 kind=compute target=4 dur=705000 timeout=0 repeat=1
op d=1 kind=compute target=4 dur=692000 timeout=9000000 repeat=1
op d=0 kind=sleep target=2 dur=81250000 timeout=1000000 repeat=1
op d=0 kind=yield target=3 dur=935000 timeout=48000000 repeat=1
op d=0 kind=compute target=1 dur=90000000 timeout=17000000 repeat=1
task name=T2 cpu=0 prio=6 start=0 period=0 act=1 deadline=0 trigger=0
op d=0 kind=compute target=2 dur=20000000 timeout=52000000 repeat=3
fault_crash task=0 at=348000000 restart=1 delay=34000000
)spec");
    const rtsc::fuzz::Divergence d = rtsc::fuzz::diff_engines(spec);
    EXPECT_FALSE(d.diverged) << d.to_string();
}

TEST(FuzzRegression, Seed7592CrashBeforeRetirement) {
    const rtsc::fuzz::ModelSpec spec = rtsc::fuzz::from_text(R"spec(
model seed=7592 horizon=0
cpu policy=edf quantum=0 preemptive=1 sched=500000 load=0 save=0 formula=0 fswitch=0 dvfs=-
event policy=0
task name=T0 cpu=0 prio=1 start=11000000 period=0 act=1 deadline=0 trigger=0
op d=0 kind=compute target=3 dur=564000 timeout=53000000 repeat=1
op d=0 kind=ev_await_for target=0 dur=20000000 timeout=59000000 repeat=1
fault_crash task=0 at=72000000 restart=1 delay=40000000
)spec");
    const rtsc::fuzz::Divergence d = rtsc::fuzz::diff_engines(spec);
    EXPECT_FALSE(d.diverged) << d.to_string();
}
