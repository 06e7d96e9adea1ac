/* An LD_PRELOAD SIGPROF sampler: where does a run's CPU time go?
 *
 * `perf` is not on the box; `cc` and `addr2line` are. Preloaded into any
 * dynamically linked program, this arms ITIMER_PROF, stores the call stack
 * at every tick into a static array (no allocation in the handler), and at
 * exit writes /proc/self/maps followed by the stacks to $SAMPLER_OUT.
 * `tools/fold.py` resolves the addresses and prints leaf / inclusive shares.
 *
 * The two commands (from the repository root; the benchmark is built with
 * debug info into a directory of its own, so neither `benchmark/` nor a
 * measured build is touched):
 *
 *   cc -O2 -shared -fPIC -o /tmp/sampler.so tools/sampler.c
 *   CARGO_PROFILE_RELEASE_DEBUG=1 cargo build --release --offline \
 *       --manifest-path benchmark/Cargo.toml --target-dir /tmp/bench-dbg
 *   LD_PRELOAD=/tmp/sampler.so SAMPLER_OUT=/tmp/stacks.txt \
 *       /tmp/bench-dbg/release/flare-benchmark \
 *       --workload traffic_lossy --seed 1 --seconds 5 --trace 0
 *   python3 tools/fold.py /tmp/stacks.txt --within workloads::timed
 *
 * SAMPLER_HZ sets the rate (default 997 ticks per CPU-second, a prime, so
 * the ticks do not lock onto a periodic workload). ITIMER_PROF counts CPU
 * time of the whole process and the kernel delivers each tick to a thread
 * that is running, so threads are sampled in proportion to the CPU they
 * use; waiting is not sampled at all.
 *
 * glibc's backtrace() unwinds through .eh_frame, which rustc emits for
 * every function, so frame pointers are not needed. Its first call loads
 * libgcc (and allocates): the constructor makes that call, the handler
 * never does.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_SAMPLES 200000
#define MAX_DEPTH 48

static void *frames[MAX_SAMPLES][MAX_DEPTH];
static unsigned char depth[MAX_SAMPLES];
static volatile int taken;
static volatile int dropped;

static void on_tick(int sig)
{
    (void)sig;
    /* Atomic: with several threads two ticks can be handled at once. */
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    depth[i] = (unsigned char)backtrace(frames[i], MAX_DEPTH);
}

static void stop_and_write(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);

    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "sampler.out", "w");
    if (!out) {
        perror("sampler: SAMPLER_OUT");
        return;
    }
    /* File mappings: fold.py takes each object's load address from them. */
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    while (maps && fgets(line, sizeof line, maps))
        if (strchr(line, '/'))
            fprintf(out, "map %s", line);
    if (maps)
        fclose(maps);

    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        /* Frames 0 and 1 are this handler and the signal trampoline. */
        fputs("stack", out);
        for (int f = 2; f < depth[i]; f++)
            fprintf(out, " %p", frames[i][f]);
        fputc('\n', out);
    }
    fprintf(out, "dropped %d\n", dropped);
    fclose(out);
}

__attribute__((constructor)) static void start(void)
{
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_tick;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    atexit(stop_and_write);

    const char *hz_env = getenv("SAMPLER_HZ");
    long hz = hz_env ? atol(hz_env) : 997;
    if (hz <= 0 || hz > 100000)
        hz = 997;
    struct itimerval tick = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &tick, NULL);
}
