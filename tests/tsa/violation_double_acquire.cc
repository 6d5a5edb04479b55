// Seeded violation for scripts/check_tsa.sh: acquires a mutex that is
// already held (netclus::Mutex is non-reentrant — this self-deadlocks
// at runtime). Clang's thread-safety analysis MUST reject this
// translation unit ("acquiring mutex 'mu_' that is already held");
// the harness asserts the compile fails.
//
// Not registered in CMake: compiled standalone by scripts/check_tsa.sh
// with clang only.
#include "common/mutex.h"

namespace {

class Account {
 public:
  Account() : mu_(netclus::lock_rank::kServerStats, "Account::mu_") {}

  void Deposit(long amount) NETCLUS_EXCLUDES(mu_) {
    netclus::MutexLock lock(&mu_);
    mu_.Lock();  // BUG: mu_ already held by `lock` — self-deadlock
    balance_ += amount;
    mu_.Unlock();
  }

 private:
  netclus::Mutex mu_;
  long balance_ NETCLUS_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Account account;
  account.Deposit(5);
  return 0;
}
