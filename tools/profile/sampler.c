/*
 * A flat CPU-time sampler to load into an unmodified executable:
 *
 *     cc -O2 -shared -fPIC -o sampler.so sampler.c
 *     PROFILE_OUT=run.prof LD_PRELOAD=$PWD/sampler.so ./dsm-benchmark ...
 *
 * At load it arms ITIMER_PROF (process CPU time, every millisecond asked; the
 * kernel delivers at its tick rate, 250 Hz on common configurations) and its
 * SIGPROF handler records the interrupted instruction pointer. At exit it
 * writes the process's memory map, one "M <line of /proc/self/maps>" line
 * each, then one "S <hex rip>" line per sample, to $PROFILE_OUT (default
 * "profile.<pid>"). report.py resolves the samples against the executable.
 * x86_64 Linux only.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)

static unsigned long samples[MAX_SAMPLES];
static atomic_ulong taken;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    ucontext_t *uc = context;
    unsigned long at = atomic_fetch_add(&taken, 1);
    if (at < MAX_SAMPLES)
        samples[at] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64];
    const char *out = getenv("PROFILE_OUT");
    if (out == NULL) {
        snprintf(path, sizeof path, "profile.%d", (int)getpid());
        out = path;
    }
    FILE *file = fopen(out, "w");
    if (file == NULL) {
        perror(out);
        return;
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps != NULL && fgets(line, sizeof line, maps) != NULL)
        fprintf(file, "M %s", line);
    if (maps != NULL)
        fclose(maps);
    unsigned long n = atomic_load(&taken);
    if (n > MAX_SAMPLES) {
        fprintf(stderr, "sampler: kept the first %d of %lu samples\n", MAX_SAMPLES, n);
        n = MAX_SAMPLES;
    }
    for (unsigned long i = 0; i < n; i++)
        fprintf(file, "S %lx\n", samples[i]);
    fclose(file);
}
