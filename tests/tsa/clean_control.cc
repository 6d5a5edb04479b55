// Positive control for scripts/check_tsa.sh: a correctly-disciplined
// translation unit that exercises every annotation the violation
// snippets abuse. If THIS fails to compile under
// -Wthread-safety -Werror, the harness (include paths, flags, macro
// layer) is broken and the violation results prove nothing.
//
// Not registered in CMake: compiled standalone by scripts/check_tsa.sh
// with clang only.
#include "common/mutex.h"

namespace {

class Account {
 public:
  Account() : mu_(netclus::lock_rank::kServerStats, "Account::mu_") {}

  // EXCLUDES + MutexLock: the public entry point takes the lock itself.
  void Deposit(long amount) NETCLUS_EXCLUDES(mu_) {
    netclus::MutexLock lock(&mu_);
    balance_ += amount;
  }

  // REQUIRES: callee runs under the caller's lock.
  long BalanceLocked() const NETCLUS_REQUIRES(mu_) { return balance_; }

  long Balance() const NETCLUS_EXCLUDES(mu_) {
    netclus::MutexLock lock(&mu_);
    return BalanceLocked();
  }

  // Manual ACQUIRE/RELEASE pairing (the analysis tracks the capability
  // across the call boundary).
  void LockForAudit() NETCLUS_ACQUIRE(mu_) { mu_.Lock(); }
  void UnlockAfterAudit() NETCLUS_RELEASE(mu_) { mu_.Unlock(); }

  // CondVar under TSA: the wait loop is explicit (a predicate lambda
  // would be analyzed as a separate unlocked function).
  void WaitUntilFunded() NETCLUS_EXCLUDES(mu_) {
    netclus::MutexLock lock(&mu_);
    while (balance_ == 0) funded_.Wait(&mu_);
  }

  void NotifyFunded() { funded_.NotifyAll(); }

 private:
  mutable netclus::Mutex mu_;
  netclus::CondVar funded_;
  long balance_ NETCLUS_GUARDED_BY(mu_) = 0;
};

long Use() {
  Account account;
  account.Deposit(5);
  account.LockForAudit();
  const long audited = account.BalanceLocked();
  account.UnlockAfterAudit();
  return audited + account.Balance();
}

}  // namespace

int main() { return Use() == 10 ? 0 : 1; }
