// Seeded violation for scripts/check_tsa.sh: writes a GUARDED_BY field
// without holding its mutex. Clang's thread-safety analysis MUST reject
// this translation unit ("writing variable 'balance_' requires holding
// mutex 'mu_'"); the harness asserts the compile fails.
//
// Not registered in CMake: compiled standalone by scripts/check_tsa.sh
// with clang only.
#include "common/mutex.h"

namespace {

class Account {
 public:
  Account() : mu_(netclus::lock_rank::kServerStats, "Account::mu_") {}

  void Deposit(long amount) {
    balance_ += amount;  // BUG: mu_ not held
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
