/* An LD_PRELOAD heap profiler: what is live when a run's heap peaks?
 *
 * The heap counterpart of `tools/sampler.c`. Preloaded into any
 * dynamically linked program, it wraps malloc, calloc, realloc, free,
 * posix_memalign and aligned_alloc, and keeps
 *   - the live bytes and blocks per power-of-two size class, and
 *   - the call stack of every allocation of at least $HEAP_MIN_BYTES
 *     bytes (default 16384), interned, with the live bytes of each.
 * When the live total falls for the first time after a new maximum, both
 * are copied: that copy is the state at the peak. At exit it writes
 * /proc/self/maps, the peak, the size-class histogram at the peak, and the
 * stacks live at the peak, each with its byte weight, to $HEAP_OUT.
 * `tools/fold.py` resolves the addresses and prints byte shares.
 *
 * The commands (from the repository root; the benchmark is built with
 * debug info into a directory of its own, so neither `benchmark/` nor a
 * measured build is touched):
 *
 *   cc -O2 -shared -fPIC -o /tmp/heap.so tools/heap.c -ldl
 *   CARGO_PROFILE_RELEASE_DEBUG=1 cargo build --release --offline \
 *       --manifest-path benchmark/Cargo.toml --target-dir /tmp/bench-dbg
 *   LD_PRELOAD=/tmp/heap.so HEAP_OUT=/tmp/heap.txt \
 *       /tmp/bench-dbg/release/flare-benchmark \
 *       --workload dense_star --seed 1 --seconds 1 --trace 0
 *   python3 tools/fold.py /tmp/heap.txt
 *
 * The peak is the process's, not the benchmark's `peak_heap_mib` (the
 * rise within one repetition above what was live when it started): the
 * workload's inputs are in it, as one entry each, and so are the
 * `vendor/bytes` slabs carved during the warm-up repetition. Per-block
 * switch state is made of allocations of a few KiB: to see their stacks,
 * lower the threshold, e.g. HEAP_MIN_BYTES=1024 (a lower threshold means
 * more backtraces, so a slower run and more stacks to intern).
 *
 * Bookkeeping never calls the allocator it wraps: the table of live
 * blocks is mmap'd, stacks are static, and a thread-local guard passes
 * every allocation made inside a hook (backtrace, dlsym, stdio) straight
 * through. What dlsym allocates while the real functions are looked up
 * is served from a static arena. Blocks allocated before the wrappers
 * were live, or through the guard, are unknown to the table; freeing
 * them is passed through uncounted.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#define CLASSES 64
#define MAX_STACKS 16384
#define MAX_DEPTH 48
#define STACK_INDEX (2 * MAX_STACKS)

static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static void (*real_free)(void *);
static int (*real_posix_memalign)(void **, size_t, size_t);
static void *(*real_aligned_alloc)(size_t, size_t);

/* Initial-exec: a dynamic TLS access may itself allocate. */
static __thread int guard __attribute__((tls_model("initial-exec")));
static int ready, resolving;

/* Allocations of at least this many bytes keep their stack ($HEAP_MIN_BYTES). */
static size_t min_bytes = 16 << 10;

/* What dlsym allocates while the real functions are being looked up. */
static char arena[4096] __attribute__((aligned(16)));
static size_t arena_used;

static void *from_arena(size_t size)
{
    size_t bytes = (size + 15) & ~(size_t)15;
    if (arena_used + bytes > sizeof arena)
        return NULL;
    void *p = arena + arena_used;
    arena_used += bytes;
    return p;
}

static void resolve(void)
{
    resolving = 1;
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_free = dlsym(RTLD_NEXT, "free");
    real_posix_memalign = dlsym(RTLD_NEXT, "posix_memalign");
    real_aligned_alloc = dlsym(RTLD_NEXT, "aligned_alloc");
    resolving = 0;
}

/* One lock over everything below; hooks hold it for a table update only. */
static volatile int lock;

static void acquire(void)
{
    while (__atomic_exchange_n(&lock, 1, __ATOMIC_ACQUIRE))
        ;
}

static void release(void)
{
    __atomic_store_n(&lock, 0, __ATOMIC_RELEASE);
}

/* Live blocks: open addressing on the address, linear probing, deletion
 * by backward shift. `stack` is 0 for a block below min_bytes. */
struct block {
    uintptr_t ptr;
    size_t size;
    uint32_t stack;
};
static struct block *table;
static size_t capacity, used;

/* Interned stacks; id i is stacks[i - 1]. */
static void *frames[MAX_STACKS][MAX_DEPTH];
static unsigned char depth[MAX_STACKS];
static size_t stack_live[MAX_STACKS], stack_peak[MAX_STACKS];
static uint32_t stack_index[STACK_INDEX];
static uint32_t stacks;
static long dropped;

static size_t class_live[CLASSES], class_blocks[CLASSES];
static size_t class_peak[CLASSES], class_peak_blocks[CLASSES];
static size_t live, peak;
static int rising;

static size_t slot_of(uintptr_t ptr)
{
    return (size_t)((ptr >> 4) * 0x9E3779B97F4A7C15ull) & (capacity - 1);
}

static int class_of(size_t size)
{
    return size ? 63 - __builtin_clzll(size) : 0;
}

static void insert(struct block b);

static void grow(void)
{
    struct block *old = table;
    size_t old_capacity = capacity;
    capacity = capacity ? 2 * capacity : 1 << 16;
    void *mem = mmap(NULL, capacity * sizeof *table, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
        perror("heap: mmap");
        abort();
    }
    table = mem;
    used = 0;
    for (size_t i = 0; i < old_capacity; i++)
        if (old[i].ptr)
            insert(old[i]);
    if (old)
        munmap(old, old_capacity * sizeof *table);
}

static void insert(struct block b)
{
    if (2 * (used + 1) > capacity)
        grow();
    size_t i = slot_of(b.ptr);
    while (table[i].ptr)
        i = (i + 1) & (capacity - 1);
    table[i] = b;
    used++;
}

/* Remove `ptr`, returning its entry (ptr 0 if unknown). */
static struct block take(uintptr_t ptr)
{
    struct block none = {0, 0, 0};
    if (!capacity)
        return none;
    size_t i = slot_of(ptr);
    while (table[i].ptr != ptr) {
        if (!table[i].ptr)
            return none;
        i = (i + 1) & (capacity - 1);
    }
    struct block found = table[i];
    /* Backward shift: move later entries of the run into the hole when
     * their home slot does not lie strictly between the hole and them. */
    size_t hole = i;
    for (size_t j = (i + 1) & (capacity - 1); table[j].ptr; j = (j + 1) & (capacity - 1)) {
        size_t home = slot_of(table[j].ptr);
        int between = hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
        if (!between) {
            table[hole] = table[j];
            hole = j;
        }
    }
    table[hole].ptr = 0;
    used--;
    return found;
}

static uint32_t intern(void **stack, int n)
{
    uint64_t h = 1469598103934665603ull;
    for (int f = 0; f < n; f++)
        h = (h ^ (uintptr_t)stack[f]) * 1099511628211ull;
    for (uint32_t i = h % STACK_INDEX;; i = (i + 1) % STACK_INDEX) {
        uint32_t id = stack_index[i];
        if (!id) {
            if (stacks == MAX_STACKS) {
                dropped++;
                return 0;
            }
            id = ++stacks;
            memcpy(frames[id - 1], stack, n * sizeof *stack);
            depth[id - 1] = (unsigned char)n;
            stack_index[i] = id;
            return id;
        }
        if (depth[id - 1] == n && !memcmp(frames[id - 1], stack, n * sizeof *stack))
            return id;
    }
}

/* The live state is the peak's while it only rises: copy it on the first
 * fall after a new maximum. */
static void fall(void)
{
    if (!rising)
        return;
    rising = 0;
    memcpy(class_peak, class_live, sizeof class_live);
    memcpy(class_peak_blocks, class_blocks, sizeof class_blocks);
    memcpy(stack_peak, stack_live, stacks * sizeof *stack_live);
}

static void count(void *p, size_t size, void **stack, int n)
{
    acquire();
    uint32_t id = n > 0 ? intern(stack, n) : 0;
    insert((struct block){(uintptr_t)p, size, id});
    int c = class_of(size);
    class_live[c] += size;
    class_blocks[c]++;
    if (id)
        stack_live[id - 1] += size;
    live += size;
    if (live > peak) {
        peak = live;
        rising = 1;
    }
    release();
}

static void uncount(void *p)
{
    acquire();
    struct block b = take((uintptr_t)p);
    if (b.ptr) {
        fall();
        int c = class_of(b.size);
        class_live[c] -= b.size;
        class_blocks[c]--;
        if (b.stack)
            stack_live[b.stack - 1] -= b.size;
        live -= b.size;
    }
    release();
}

/* Count a new block, with its stack if it is large. Frame 0 is this
 * function and frame 1 the hook that called it: both are dropped. */
static void __attribute__((noinline)) track(void *p, size_t size)
{
    if (!p)
        return;
    void *stack[MAX_DEPTH + 2];
    int n = 0;
    if (size >= min_bytes) {
        guard++;
        n = backtrace(stack, MAX_DEPTH + 2) - 2;
        guard--;
    }
    count(p, size, stack + 2, n > 0 ? n : 0);
}

static int active(void)
{
    return ready && !guard;
}

void *malloc(size_t size)
{
    if (resolving)
        return from_arena(size);
    if (!real_free)
        resolve();
    void *p = real_malloc(size);
    if (active())
        track(p, size);
    return p;
}

void *calloc(size_t n, size_t size)
{
    if (resolving)
        return from_arena(n * size); /* static, so already zero */
    if (!real_free)
        resolve();
    void *p = real_calloc(n, size);
    if (active())
        track(p, n * size);
    return p;
}

void *realloc(void *old, size_t size)
{
    if (!real_free)
        resolve();
    if (old && active())
        uncount(old);
    void *p = real_realloc(old, size);
    if (active() && size)
        track(p, size);
    return p;
}

void free(void *p)
{
    if ((char *)p >= arena && (char *)p < arena + sizeof arena)
        return;
    if (!real_free)
        resolve();
    if (p && active())
        uncount(p);
    real_free(p);
}

int posix_memalign(void **out, size_t align, size_t size)
{
    if (!real_free)
        resolve();
    int err = real_posix_memalign(out, align, size);
    if (!err && active())
        track(*out, size);
    return err;
}

void *aligned_alloc(size_t align, size_t size)
{
    if (!real_free)
        resolve();
    void *p = real_aligned_alloc(align, size);
    if (active())
        track(p, size);
    return p;
}

static void write_profile(void)
{
    guard++;
    acquire();
    fall();
    const char *path = getenv("HEAP_OUT");
    FILE *out = fopen(path ? path : "heap.out", "w");
    if (!out) {
        perror("heap: HEAP_OUT");
        release();
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

    fprintf(out, "peak %zu\n", peak);
    for (int c = 0; c < CLASSES; c++)
        if (class_peak_blocks[c])
            fprintf(out, "class %zu %zu %zu\n", (size_t)1 << c, class_peak[c], class_peak_blocks[c]);
    for (uint32_t id = 1; id <= stacks; id++) {
        if (!stack_peak[id - 1])
            continue;
        fprintf(out, "stack bytes=%zu", stack_peak[id - 1]);
        for (int f = 0; f < depth[id - 1]; f++)
            fprintf(out, " %p", frames[id - 1][f]);
        fputc('\n', out);
    }
    fprintf(out, "dropped %ld\n", dropped);
    fclose(out);
    release();
}

__attribute__((constructor)) static void start(void)
{
    if (!real_free)
        resolve();
    const char *min = getenv("HEAP_MIN_BYTES");
    if (min && *min)
        min_bytes = strtoull(min, NULL, 10);
    /* backtrace's first call loads libgcc and allocates: make it here. */
    void *warm[4];
    guard++;
    backtrace(warm, 4);
    guard--;
    atexit(write_profile);
    ready = 1;
}
