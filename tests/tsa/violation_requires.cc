// Seeded violation for scripts/check_tsa.sh: calls a REQUIRES-annotated
// function without holding the required mutex. Clang's thread-safety
// analysis MUST reject this translation unit ("calling function
// 'BalanceLocked' requires holding mutex 'mu_'"); the harness asserts
// the compile fails.
//
// Not registered in CMake: compiled standalone by scripts/check_tsa.sh
// with clang only.
#include "common/mutex.h"

namespace {

class Account {
 public:
  Account() : mu_(netclus::lock_rank::kServerStats, "Account::mu_") {}

  long BalanceLocked() const NETCLUS_REQUIRES(mu_) { return balance_; }

  long Balance() const {
    return BalanceLocked();  // BUG: caller does not hold mu_
  }

 private:
  mutable netclus::Mutex mu_;
  long balance_ NETCLUS_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Account account;
  return static_cast<int>(account.Balance());
}
