// Interprocedural composition tests (docs/ANALYSIS.md "Interprocedural
// composition", DESIGN.md §15). The contracts under test:
//
//  1. Precision: the two-contract router workload composes to a non-⊤
//     summary with per-account keys — DELEGATECALL re-binds the token
//     ledger onto the router's own storage, CALL/STATICCALL attribute the
//     kvstore keys to the kvstore's address.
//  2. Soundness: the composed prediction covers every observed access of a
//     live execution (differentially, against OverlayState), the composed
//     min-gas never rejects a transaction that would have succeeded, and
//     every degradation is an explicit ComposeBailout.
//  3. Invalidation: the InterprocCache re-composes when a resolved callee's
//     code changes in state.
//  4. Scheduling: a hinted router block runs with zero aborts and zero
//     fallbacks, bit-identical to sequential execution.
#include "evm/analysis/interproc.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/keccak.hpp"
#include "evm/analysis/analysis.hpp"
#include "evm/asm.hpp"
#include "evm/contracts.hpp"
#include "evm/opcodes.hpp"
#include "state/overlay.hpp"
#include "state/statedb.hpp"
#include "txn/parallel_executor.hpp"
#include "txn/pipeline.hpp"
#include "txn/rwset.hpp"

namespace srbb::txn {
namespace {

using evm::Opcode;
using evm::Program;
using evm::analysis::AccountAccess;
using evm::analysis::AnalysisCache;
using evm::analysis::AnalysisResult;
using evm::analysis::CallKind;
using evm::analysis::ComposeBailout;
using evm::analysis::ComposedSummary;
using evm::analysis::InterprocCache;
using evm::analysis::SymClass;
using evm::analysis::SymExpr;
using evm::analysis::compose_summary;

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

Address contract_addr(std::uint8_t tag) {
  Address a;
  a[0] = 0xC0;
  a[19] = tag;
  return a;
}

const Address kToken = contract_addr(6);
const Address kKvStore = contract_addr(7);
const Address kRouter = contract_addr(8);

U256 addr_word(const Address& a) { return U256::from_be(a.view()); }

/// storage slot keccak(word ++ tag) — the emit_map_key idiom.
Hash32 map_slot(const U256& word, std::uint64_t tag) {
  Bytes preimage;
  append(preimage, word.be_bytes());
  append(preimage, U256{tag}.be_bytes());
  return crypto::Keccak256::hash(BytesView{preimage});
}

SymExpr map_key(SymExpr word, std::uint64_t tag) {
  SymExpr e;
  e.cls = SymClass::kKeccak;
  e.children.push_back(std::move(word));
  e.children.push_back(SymExpr::make_const(U256{tag}));
  return e;
}

bool contains_expr(const std::vector<SymExpr>& exprs, const SymExpr& e) {
  for (const SymExpr& x : exprs) {
    if (x == e) return true;
  }
  return false;
}

const AccountAccess* find_account(const ComposedSummary& s, const SymExpr& a) {
  for (const AccountAccess& aa : s.accesses) {
    if (aa.account == a) return &aa;
  }
  return nullptr;
}

state::StateDB make_state(std::size_t senders) {
  state::StateDB db;
  for (std::size_t i = 0; i < senders; ++i) {
    db.add_balance(scheme().make_identity(i).address(), U256{1'000'000'000});
  }
  auto deploy = [&db](const Address& at, const Bytes& code) {
    db.create_account(at);
    db.set_nonce(at, 1);
    db.set_code(at, code);
  };
  deploy(kToken, evm::token_contract().runtime_code);
  deploy(kKvStore, evm::kvstore_contract().runtime_code);
  deploy(kRouter, evm::router_contract(kKvStore, kToken).runtime_code);
  // The token ledger lives in *router* storage (DELEGATECALL): pre-fund
  // every sender's balance slot so rtransfer succeeds.
  for (std::size_t i = 0; i < senders; ++i) {
    const Address sender = scheme().make_identity(i).address();
    db.set_storage(kRouter, map_slot(addr_word(sender), 0), U256{1'000'000});
  }
  db.commit();
  return db;
}

Transaction invoke(std::uint64_t sender, std::uint64_t nonce,
                   const Address& contract, Bytes calldata,
                   std::uint64_t gas_limit = 300'000) {
  TxParams params;
  params.kind = TxKind::kInvoke;
  params.nonce = nonce;
  params.gas_limit = gas_limit;
  params.to = contract;
  params.data = std::move(calldata);
  return make_signed(params, scheme().make_identity(sender), scheme());
}

Bytes build_or_die(const Program& p) {
  auto built = p.build();
  EXPECT_TRUE(built.is_ok());
  return built.is_ok() ? std::move(built).take() : Bytes{};
}

/// Minimal caller: CALL `target` with empty calldata, guard the success flag
/// with the revert-on-failure idiom, STOP.
Bytes guarded_call_code(const Address& target) {
  Program p;
  p.push(0).push(0).push(0).push(0).push(0);
  p.push(addr_word(target)).op(Opcode::GAS).op(Opcode::CALL);
  p.push_label("ok").op(Opcode::JUMPI);
  p.push(0).push(0).op(Opcode::REVERT);
  p.label("ok").op(Opcode::STOP);
  return build_or_die(p);
}

// ---------------------------------------------------------------------------
// Composition precision on the router workload.

TEST(InterprocComposition, RouterResolvesAllThreeEdges) {
  state::StateDB db = make_state(1);
  AnalysisCache cache;
  const ComposedSummary s = compose_summary(db, kRouter, cache);

  EXPECT_FALSE(s.top) << to_string(s.bailout);
  EXPECT_EQ(s.bailout, ComposeBailout::kNone);
  EXPECT_EQ(s.unknown_target_sites, 0u);
  ASSERT_EQ(s.edges.size(), 3u);
  EXPECT_EQ(s.max_depth, 1u);

  bool saw_call_kv = false, saw_delegate_token = false, saw_static_kv = false;
  for (const auto& e : s.edges) {
    EXPECT_FALSE(e.precompile);
    EXPECT_FALSE(e.empty_code);
    EXPECT_EQ(e.depth, 1u);
    if (e.kind == CallKind::kCall && e.callee == kKvStore) saw_call_kv = true;
    if (e.kind == CallKind::kDelegateCall && e.callee == kToken) {
      saw_delegate_token = true;
    }
    if (e.kind == CallKind::kStaticCall && e.callee == kKvStore) {
      saw_static_kv = true;
    }
  }
  EXPECT_TRUE(saw_call_kv);
  EXPECT_TRUE(saw_delegate_token);
  EXPECT_TRUE(saw_static_kv);
}

TEST(InterprocComposition, DelegatecallRebindsAccountsAndCaller) {
  state::StateDB db = make_state(1);
  AnalysisCache cache;
  const ComposedSummary s = compose_summary(db, kRouter, cache);
  ASSERT_FALSE(s.top) << to_string(s.bailout);

  // DELEGATECALL token.transfer: the ledger keys land on the *router's own*
  // storage (kSelf survives the delegate substitution), and the callee's
  // CALLER stays the router's caller — the tx sender.
  const AccountAccess* self =
      find_account(s, SymExpr::make_leaf(SymClass::kSelf));
  ASSERT_NE(self, nullptr);
  const SymExpr from_key = map_key(SymExpr::make_leaf(SymClass::kCaller), 0);
  const SymExpr to_key = map_key(SymExpr::make_calldata(4), 0);
  EXPECT_TRUE(contains_expr(self->writes, from_key));
  EXPECT_TRUE(contains_expr(self->writes, to_key));
  EXPECT_TRUE(contains_expr(self->reads, from_key));

  // CALL/STATICCALL kvstore: keys attributed to the kvstore's address word,
  // re-based through the forwarded calldata (router arg 0 == callee arg 0).
  const AccountAccess* kv =
      find_account(s, SymExpr::make_const(addr_word(kKvStore)));
  ASSERT_NE(kv, nullptr);
  EXPECT_TRUE(contains_expr(kv->writes, to_key));
  EXPECT_TRUE(contains_expr(kv->reads, to_key));
}

TEST(InterprocComposition, SelfCallCycleBailsExplicitly) {
  // A contract that guard-calls its own address: composition must detect the
  // code-hash cycle, not recurse to the depth budget.
  const Address self_addr = contract_addr(0x33);
  state::StateDB db;
  db.create_account(self_addr);
  db.set_nonce(self_addr, 1);
  db.set_code(self_addr, guarded_call_code(self_addr));
  db.commit();

  AnalysisCache cache;
  const ComposedSummary s = compose_summary(db, self_addr, cache);
  EXPECT_TRUE(s.top);
  EXPECT_EQ(s.bailout, ComposeBailout::kCycle);
  ASSERT_EQ(s.edges.size(), 1u);
  EXPECT_EQ(s.edges[0].callee, self_addr);
}

TEST(InterprocComposition, UnknownTargetBailsExplicitly) {
  // Call target taken from calldata: not statically resolvable.
  Program p;
  p.push(0).push(0).push(0).push(0).push(0);
  p.push(4).op(Opcode::CALLDATALOAD).op(Opcode::GAS).op(Opcode::CALL);
  p.op(Opcode::POP).op(Opcode::STOP);
  const Address at = contract_addr(0x34);
  state::StateDB db;
  db.create_account(at);
  db.set_nonce(at, 1);
  db.set_code(at, build_or_die(p));
  db.commit();

  AnalysisCache cache;
  const ComposedSummary s = compose_summary(db, at, cache);
  EXPECT_TRUE(s.top);
  EXPECT_EQ(s.bailout, ComposeBailout::kUnknownTarget);
  EXPECT_EQ(s.unknown_target_sites, 1u);
}

TEST(InterprocComposition, EmptyCalleeIsAResolvedNoAccessEdge) {
  const Address eoa = scheme().make_identity(77).address();
  const Address at = contract_addr(0x35);
  state::StateDB db;
  db.add_balance(eoa, U256{1});
  db.create_account(at);
  db.set_nonce(at, 1);
  db.set_code(at, guarded_call_code(eoa));
  db.commit();

  AnalysisCache cache;
  const ComposedSummary s = compose_summary(db, at, cache);
  EXPECT_FALSE(s.top) << to_string(s.bailout);
  ASSERT_EQ(s.edges.size(), 1u);
  EXPECT_TRUE(s.edges[0].empty_code);
  EXPECT_TRUE(s.accesses.empty());
}

TEST(InterprocComposition, DeterministicDigest) {
  state::StateDB db = make_state(1);
  AnalysisCache cache_a;
  AnalysisCache cache_b;
  const ComposedSummary a = compose_summary(db, kRouter, cache_a);
  const ComposedSummary b = compose_summary(db, kRouter, cache_b);
  EXPECT_EQ(a.digest(), b.digest());
}

// ---------------------------------------------------------------------------
// Cache keying: (root hash, resolved callee hash set).

TEST(InterprocCacheKeying, HitWhileStableRecomposeOnCalleeCodeChange) {
  state::StateDB db = make_state(1);
  AnalysisCache analyses;
  InterprocCache cache;

  const auto first = cache.get(db, kRouter, analyses);
  ASSERT_FALSE(first->top);
  EXPECT_EQ(cache.misses(), 1u);
  const auto second = cache.get(db, kRouter, analyses);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first->digest(), second->digest());

  // Swap the kvstore's code under the router: the cached summary's edge no
  // longer matches state, so the next lookup must re-compose.
  db.set_code(kKvStore, evm::counter_contract().runtime_code);
  db.commit();
  const auto third = cache.get(db, kRouter, analyses);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(third->digest(), first->digest());
  // The counter's put/get selectors don't exist, but composition is purely
  // static: the new summary reflects the counter's slot-0 keys.
  ASSERT_FALSE(third->top);
  const AccountAccess* kv =
      find_account(*third, SymExpr::make_const(addr_word(kKvStore)));
  ASSERT_NE(kv, nullptr);
  EXPECT_TRUE(contains_expr(kv->writes, SymExpr::make_const(U256{0})));

  // The old state's variant still serves when queried against matching code:
  // both variants live under the same root hash, keyed by callee hash set.
  state::StateDB fresh = make_state(1);
  const auto fourth = cache.get(fresh, kRouter, analyses);
  EXPECT_EQ(fourth->digest(), first->digest());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
}

// ---------------------------------------------------------------------------
// Composed min-gas: the under-gas drop (check vi) fires through calls.

Status eager(const Transaction& tx, const state::StateView& db,
             const ValidationConfig& vcfg) {
  return ValidationPipeline(scheme(), vcfg).validate_one(*make_tx_ptr(tx), db);
}

TEST(InterprocMinGas, ComposedBoundExceedsIntraprocOnRouter) {
  state::StateDB db = make_state(1);
  AnalysisCache cache;
  const Bytes& router_code = db.code(kRouter);
  const auto intra = cache.get(db.code_keccak(kRouter),
                               BytesView{router_code.data(), router_code.size()});
  const ComposedSummary s = compose_summary(db, kRouter, cache);
  ASSERT_NE(s.min_gas, AnalysisResult::kNoSuccessfulPath);
  // Every router entry guards a call into real code, so the composed bound
  // must strictly exceed the router's own frame minimum.
  EXPECT_GT(s.min_gas, intra->min_gas);
}

TEST(InterprocMinGas, EagerValidationGatesOnTheComposedBound) {
  state::StateDB db = make_state(4);
  AnalysisCache analyses;
  const ComposedSummary s = compose_summary(db, kRouter, analyses);
  ASSERT_FALSE(s.top);

  ValidationConfig vcfg;
  vcfg.analysis_cache = &analyses;
  const Bytes calldata = evm::encode_call("rtransfer(uint256,uint256)",
                                          {addr_word(contract_addr(0x77)),
                                           U256{1}});
  const std::uint64_t intrinsic =
      intrinsic_gas(invoke(0, 0, kRouter, calldata));

  // One unit below the composed minimum: rejected before consensus.
  const Transaction under =
      invoke(0, 0, kRouter, calldata, intrinsic + s.min_gas - 1);
  const Status rejected = eager(under, db, vcfg);
  EXPECT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.message().find("static minimum"), std::string::npos);

  // At the bound: admitted, and the execution must actually succeed —
  // the static bound must never reject a satisfiable budget.
  const Transaction at_bound =
      invoke(0, 1, kRouter, calldata, intrinsic + s.min_gas);
  EXPECT_TRUE(eager(at_bound, db, vcfg).is_ok());

  ExecutionConfig config;
  config.scheme = &scheme();
  const Transaction generous = invoke(0, 0, kRouter, calldata);
  const Result<Receipt> res = apply_transaction(generous, db, {}, config);
  ASSERT_TRUE(res.is_ok());
  EXPECT_TRUE(res.value().success);
  // Differential: the composed lower bound is below the real cost.
  EXPECT_GE(res.value().gas_used, intrinsic + s.min_gas);
}

TEST(InterprocMinGas, GuardedDoomedCalleeDoomsTheCaller) {
  // The callee always reverts; the caller guards the call. No budget can buy
  // a successful execution, and the composed bound proves it.
  Program doomed;
  doomed.push(0).push(0).op(Opcode::REVERT);
  const Address callee_at = contract_addr(0x41);
  const Address caller_at = contract_addr(0x42);

  state::StateDB db;
  db.add_balance(scheme().make_identity(0).address(), U256{1'000'000'000});
  db.create_account(callee_at);
  db.set_nonce(callee_at, 1);
  db.set_code(callee_at, build_or_die(doomed));
  db.create_account(caller_at);
  db.set_nonce(caller_at, 1);
  db.set_code(caller_at, guarded_call_code(callee_at));
  db.commit();

  AnalysisCache analyses;
  const ComposedSummary s = compose_summary(db, caller_at, analyses);
  EXPECT_EQ(s.min_gas, AnalysisResult::kNoSuccessfulPath);

  ValidationConfig vcfg;
  vcfg.analysis_cache = &analyses;
  const Transaction tx = invoke(0, 0, caller_at, {}, 10'000'000);
  const Status st = eager(tx, db, vcfg);
  EXPECT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("static minimum"), std::string::npos);

  // Differential: the rejected transaction indeed cannot succeed.
  ExecutionConfig config;
  config.scheme = &scheme();
  const Result<Receipt> res = apply_transaction(tx, db, {}, config);
  ASSERT_TRUE(res.is_ok());
  EXPECT_FALSE(res.value().success);
}

// ---------------------------------------------------------------------------
// Soundness differential on the live router: predicted ⊇ observed.

TEST(InterprocSoundness, RouterPredictionsCoverExecution) {
  state::StateDB db = make_state(8);
  AnalysisCache cache;
  ExecutionConfig config;
  config.scheme = &scheme();
  const evm::BlockContext block{};

  std::vector<Transaction> txs;
  txs.push_back(invoke(0, 0, kRouter,
                       evm::encode_call("rput(uint256,uint256)",
                                        {U256{7}, U256{99}})));
  txs.push_back(invoke(1, 0, kRouter,
                       evm::encode_call("rtransfer(uint256,uint256)",
                                        {addr_word(contract_addr(0x55)),
                                         U256{10}})));
  txs.push_back(invoke(2, 0, kRouter,
                       evm::encode_call("rget(uint256)", {U256{7}})));
  // Insufficient funds: the DELEGATECALL child reverts, the guard propagates
  // the revert — reads of the reverted frame must still be covered.
  txs.push_back(invoke(3, 0, kRouter,
                       evm::encode_call("rtransfer(uint256,uint256)",
                                        {addr_word(contract_addr(0x55)),
                                         U256{100'000'000}})));
  // Unknown selector: router-level revert without reaching any call.
  txs.push_back(invoke(4, 0, kRouter, evm::encode_call("nonexistent()", {})));

  for (std::size_t i = 0; i < txs.size(); ++i) {
    const PredictedRwSet pred = predict_rwset(txs[i], db, block, cache);
    EXPECT_FALSE(pred.top) << "tx " << i << " degraded to blind";
    state::OverlayState overlay{db};
    const Result<Receipt> res = apply_transaction(txs[i], overlay, block, config);
    EXPECT_TRUE(
        pred.covers(overlay.observed_reads(), overlay.observed_writes()))
        << "tx " << i << ": composed prediction does not cover execution";
    if (res.is_ok()) overlay.apply_to(db);
  }
}

// ---------------------------------------------------------------------------
// Hinted scheduling on the router block: zero aborts, zero fallbacks,
// bit-identical results. (Runs under TSan via tools/tsan_check.sh.)

TEST(InterprocExecutor, HintedRouterBlockZeroAbortsBitIdentical) {
  constexpr std::uint64_t kSenders = 8;
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < kSenders; ++s) {
    // Distinct recipients: ledger slots are pairwise disjoint, so the
    // composed hints prove non-conflict — blind speculation cannot.
    txs.push_back(invoke(s, 0, kRouter,
                         evm::encode_call("rtransfer(uint256,uint256)",
                                          {U256{1'000 + s}, U256{1}})));
  }

  ExecutionConfig seq_config;
  seq_config.scheme = &scheme();
  state::StateDB seq_db = make_state(kSenders);
  std::vector<Result<Receipt>> seq;
  for (const Transaction& tx : txs) {
    seq.push_back(apply_transaction(tx, seq_db, {}, seq_config));
  }
  seq_db.commit();

  state::StateDB par_db = make_state(kSenders);
  AnalysisCache cache;
  ExecutionConfig config;
  config.scheme = &scheme();
  config.analysis_hints = true;
  config.hint_cache = &cache;
  ParallelExecutor executor{4, 3};
  std::vector<const Transaction*> ptrs;
  for (const Transaction& tx : txs) ptrs.push_back(&tx);
  ParallelExecStats stats;
  const auto par = executor.execute_block(ptrs, par_db, {}, config, &stats);
  par_db.commit();

  EXPECT_EQ(stats.hinted_txs, kSenders);
  EXPECT_EQ(stats.top_txs, 0u);
  EXPECT_EQ(stats.aborts, 0u);
  EXPECT_EQ(stats.fallback_txs, 0u);
  EXPECT_EQ(stats.hint_violations, 0u);

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(seq[i].is_ok());
    ASSERT_TRUE(par[i].is_ok()) << par[i].message();
    EXPECT_EQ(seq[i].value().tx_hash, par[i].value().tx_hash);
    EXPECT_TRUE(seq[i].value().success);
    EXPECT_EQ(seq[i].value().success, par[i].value().success);
    EXPECT_EQ(seq[i].value().gas_used, par[i].value().gas_used);
  }
  EXPECT_EQ(seq_db.state_root(), par_db.state_root());
}

}  // namespace
}  // namespace srbb::txn
