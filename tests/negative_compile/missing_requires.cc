// Seeded violation — must NOT compile under -Werror=thread-safety: calls a
// REQUIRES(mu_) method without holding the mutex. This is the contract the
// *Locked helpers (EvictOverLimitLocked, DetachIfCurrentLocked, the request
// slots' Grant/AwaitGrant) rely on.

#include "src/common/thread_annotations.h"

namespace {

class Counter {
 public:
  void BumpLocked() REQUIRES(mu_) { ++value_; }

  cajade::Mutex mu_;

 private:
  int value_ GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Counter c;
  // error: calling function 'BumpLocked' requires holding mutex 'c.mu_'
  c.BumpLocked();
  return 0;
}
