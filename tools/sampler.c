/* A sampling profiler loaded with LD_PRELOAD, for hosts without perf.
 *
 * Every thread of the process gets a timer on its own CPU-time clock
 * (CLOCK_THREAD_CPUTIME_ID) that sends it SIGPROF once per kPeriodNs of CPU
 * it consumes; the handler records the interrupted program counter. A
 * thread that is blocked consumes no CPU and so takes no samples. The
 * kernel fires these timers at its tick, so the rate is bounded by the
 * tick (a few hundred samples per second per busy thread), whatever
 * kPeriodNs asks for. The main thread is armed when the library loads;
 * every other thread is armed by the pthread_create interposed here,
 * before its start routine runs.
 *
 * When the process exits normally, the file named by SAMPLER_OUT gets
 * /proc/self/maps, then the recorded PCs in hex, one per line:
 *
 *   # maps
 *   <the lines of /proc/self/maps>
 *   # pcs <recorded> <dropped>
 *   <pc>...
 *
 * tools/profile.py builds this file, runs a benchmark workload under it
 * and symbolizes the PCs. By hand:
 *
 *   cc -O2 -shared -fPIC -o sampler.so tools/sampler.c
 *   LD_PRELOAD=$PWD/sampler.so SAMPLER_OUT=pcs.txt ./program
 *
 * A process that leaves through _exit, or dies on a signal, writes nothing.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxSamples = 1 << 22 }; /* 32 MiB of PCs; later samples are dropped */
static const long kPeriodNs = 1000 * 1000;

static uintptr_t *pcs;
static atomic_size_t taken;

static void on_sigprof(int sig, siginfo_t *si, void *ctx) {
  (void)sig;
  (void)si;
  const ucontext_t *uc = ctx;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sampler.c: no program-counter accessor for this architecture"
#endif
  const size_t i = atomic_fetch_add_explicit(&taken, 1, memory_order_relaxed);
  if (i < kMaxSamples) pcs[i] = pc;
}

/* Arms a CPU-time timer for the calling thread; returns 0 on success. */
static int arm_this_thread(timer_t *timer) {
  struct sigevent sev;
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, timer) != 0) return -1;
  const struct itimerspec every = {{0, kPeriodNs}, {0, kPeriodNs}};
  if (timer_settime(*timer, 0, &every, NULL) != 0) {
    timer_delete(*timer);
    return -1;
  }
  return 0;
}

struct start {
  void *(*fn)(void *);
  void *arg;
};

static void *armed_start(void *p) {
  const struct start s = *(struct start *)p;
  free(p);
  timer_t timer;
  const int armed = arm_this_thread(&timer) == 0;
  void *ret = s.fn(s.arg);
  if (armed) timer_delete(timer);
  return ret;
}

int pthread_create(pthread_t *thread, const pthread_attr_t *attr,
                   void *(*fn)(void *), void *arg) {
  static int (*real)(pthread_t *, const pthread_attr_t *, void *(*)(void *),
                     void *);
  if (real == NULL) *(void **)&real = dlsym(RTLD_NEXT, "pthread_create");
  struct start *s = malloc(sizeof *s);
  if (s == NULL || pcs == NULL) {
    free(s);
    return real(thread, attr, fn, arg);
  }
  s->fn = fn;
  s->arg = arg;
  const int rc = real(thread, attr, armed_start, s);
  if (rc != 0) free(s);
  return rc;
}

__attribute__((constructor)) static void sampler_start(void) {
  if (getenv("SAMPLER_OUT") == NULL) return;
  void *buf = mmap(NULL, kMaxSamples * sizeof(uintptr_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (buf == MAP_FAILED) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  pcs = buf;
  timer_t main_timer; /* lives until exit */
  arm_this_thread(&main_timer);
}

__attribute__((destructor)) static void sampler_write(void) {
  if (pcs == NULL) return;
  signal(SIGPROF, SIG_IGN); /* no handler writes pcs past this point */
  const char *path = getenv("SAMPLER_OUT");
  FILE *out = fopen(path, "w");
  if (out == NULL) {
    perror(path);
    return;
  }
  fputs("# maps\n", out);
  FILE *maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  const size_t n = atomic_load(&taken);
  const size_t kept = n < kMaxSamples ? n : kMaxSamples;
  fprintf(out, "# pcs %zu %zu\n", kept, n - kept);
  for (size_t i = 0; i < kept; ++i) fprintf(out, "%lx\n", (unsigned long)pcs[i]);
  if (fclose(out) != 0) perror(path);
}
