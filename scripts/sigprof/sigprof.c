/* LD_PRELOAD sample profiler: SIGPROF every SIGPROF_HZ (default 997) of
 * process CPU time, frame-pointer stack walk, raw return addresses dumped
 * at exit for symbolize.py. Needs -C force-frame-pointers=yes in the
 * profiled binary; single-threaded targets (the simulated workloads).
 *
 *   cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   SIGPROF_OUT=prof.txt LD_PRELOAD=./sigprof.so ./target/release/wow-perf ...
 *
 * Output: the file-backed lines of /proc/self/maps (to undo PIE
 * relocation), then one line per sample, innermost frame first.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_DEPTH 48
#define MAX_SAMPLES (1u << 20)

static uintptr_t (*samples)[MAX_DEPTH];
static volatile unsigned n_samples;
static uintptr_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t *si, void *ucv) {
    (void)sig; (void)si;
    if (n_samples >= MAX_SAMPLES) return;
    ucontext_t *uc = ucv;
    uintptr_t *out = samples[n_samples];
    int d = 0;
    out[d++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    /* A frame is [saved rbp][return address]; stop at anything that is not
     * an aligned, ascending address inside the main thread's stack. */
    while (d < MAX_DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && (fp & 7) == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (!ret) break;
        out[d++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    if (d < MAX_DEPTH) out[d] = 0;
    n_samples++;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *f = fopen(path ? path : "sigprof.out", "w"), *maps = fopen("/proc/self/maps", "r");
    if (!f || !maps) return;
    char line[512];
    while (fgets(line, sizeof line, maps))
        if (strchr(line, '/')) fprintf(f, "map %s", line);
    fclose(maps);
    for (unsigned i = 0; i < n_samples; i++) {
        for (int d = 0; d < MAX_DEPTH && samples[i][d]; d++) fprintf(f, "%lx ", (unsigned long)samples[i][d]);
        fputc('\n', f);
    }
    fclose(f);
}

__attribute__((constructor)) static void init(void) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
    if (maps) fclose(maps);
    samples = calloc(MAX_SAMPLES, sizeof *samples); /* untouched pages cost nothing */
    if (!samples || !stack_hi) return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    const char *hz_s = getenv("SIGPROF_HZ");
    long hz = hz_s ? atol(hz_s) : 997;
    struct itimerval it = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &it, NULL);
    atexit(dump);
}
