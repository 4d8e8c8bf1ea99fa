/**
 * @file
 * A SIGPROF sampling profiler for any binary of the tree, loaded with
 * LD_PRELOAD so that the simulator carries no instrumentation:
 *
 *   SPUR_PROF_OUT=prof.txt \
 *   LD_PRELOAD=build/tools/prof/libspur_prof.so \
 *       build/bench/table_3_4_dirty_overhead --refs=1 --reps=1
 *   python3 tools/prof/report.py prof.txt
 *
 * When the library loads it arms ITIMER_PROF (one signal per
 * millisecond of process CPU time, user and system, which the kernel
 * rounds up to its timer tick).  Each SIGPROF stores the
 * interrupted program counter in a preallocated ring; the handler does
 * one relaxed atomic increment and one store, so it is async-signal-safe
 * and never allocates.  Interval timers do not survive fork(), so a
 * pthread_atfork child hook re-arms it in forked children (spur_bench
 * works in one); each process appends its own block at exit.
 *
 * Output ($SPUR_PROF_OUT, text, one field per line):
 *
 *   spur-prof/1
 *   exe <path of the profiled executable>
 *   base <hex load base of the executable (PIE bias; 0 when not PIE)>
 *   interval_us <requested sampling interval>
 *   process <pid> samples <taken> kept <stored>
 *   <hex pc>            (one line per kept sample)
 *   ...                 (then the next process's block)
 *
 * The file is truncated when the library loads, so every exec'd
 * process starts a new profile; run one profiled command per file.
 * Without SPUR_PROF_OUT the library stays unarmed.  When a process
 * takes more samples than the ring holds, the newest are kept.
 */
#include <fcntl.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr uint64_t kRingSlots = uint64_t{1} << 20;
constexpr long kIntervalUs = 1000;

// Zero-initialised, so its pages cost nothing until samples land.
uintptr_t g_ring[kRingSlots];
std::atomic<uint64_t> g_taken{0};
const char* g_out = nullptr;

uintptr_t
InterruptedPc(void* context)
{
    const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
    return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
#error "tools/prof/sampler.cc: no program-counter accessor for this ISA"
#endif
}

void
OnProf(int, siginfo_t*, void* context)
{
    const uint64_t n = g_taken.fetch_add(1, std::memory_order_relaxed);
    g_ring[n % kRingSlots] = InterruptedPc(context);
}

void
SetTimer(long interval_us)
{
    itimerval timer{};
    timer.it_interval.tv_usec = interval_us;
    timer.it_value.tv_usec = interval_us;
    setitimer(ITIMER_PROF, &timer, nullptr);
}

void
Arm()
{
    g_taken.store(0, std::memory_order_relaxed);
    SetTimer(kIntervalUs);
}

int
FirstObjectBase(dl_phdr_info* info, size_t, void* base)
{
    // The first object dl_iterate_phdr reports is the executable.
    *static_cast<uintptr_t*>(base) = info->dlpi_addr;
    return 1;
}

bool
WriteAll(int fd, const std::string& text)
{
    size_t done = 0;
    while (done < text.size()) {
        const ssize_t n = write(fd, text.data() + done, text.size() - done);
        if (n <= 0) {
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

void
AppendLine(std::string& text, const char* format, auto... args)
{
    char line[4200];
    const int n = std::snprintf(line, sizeof line, format, args...);
    if (n > 0) {
        text.append(line, std::min(static_cast<size_t>(n), sizeof line - 1));
    }
}

/** At exit: disarm, then append this process's samples in one write. */
void
Dump()
{
    SetTimer(0);
    const uint64_t taken = g_taken.load(std::memory_order_relaxed);
    const uint64_t kept = taken < kRingSlots ? taken : kRingSlots;
    std::string text;
    text.reserve(64 + kept * 17);
    AppendLine(text, "process %d samples %llu kept %llu\n",
               static_cast<int>(getpid()),
               static_cast<unsigned long long>(taken),
               static_cast<unsigned long long>(kept));
    for (uint64_t i = taken - kept; i < taken; ++i) {
        AppendLine(text, "%llx\n",
                   static_cast<unsigned long long>(g_ring[i % kRingSlots]));
    }
    const int fd = open(g_out, O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0 || !WriteAll(fd, text)) {
        std::fprintf(stderr, "spur_prof: cannot write %s\n", g_out);
    }
    if (fd >= 0) {
        close(fd);
    }
}

__attribute__((constructor)) void
Start()
{
    g_out = std::getenv("SPUR_PROF_OUT");
    if (g_out == nullptr || *g_out == '\0') {
        return;
    }
    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = '\0';
    uintptr_t base = 0;
    dl_iterate_phdr(&FirstObjectBase, &base);

    std::string header = "spur-prof/1\n";
    AppendLine(header, "exe %s\n", exe);
    AppendLine(header, "base %llx\n", static_cast<unsigned long long>(base));
    AppendLine(header, "interval_us %ld\n", kIntervalUs);
    const int fd =
        open(g_out, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0 || !WriteAll(fd, header)) {
        std::fprintf(stderr, "spur_prof: cannot write %s\n", g_out);
        if (fd >= 0) {
            close(fd);
        }
        g_out = nullptr;
        return;
    }
    close(fd);

    struct sigaction action {};
    action.sa_sigaction = &OnProf;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
    pthread_atfork(nullptr, nullptr, &Arm);
    std::atexit(&Dump);
    Arm();
}

}  // namespace
