// Tests for the EVM bytecode static analyzer (src/evm/analysis): the
// disassembler, CFG construction, the stack-interval fixpoint verdicts,
// min-gas bounds, the code-hash-keyed cache, and the three enforcement
// points (CREATE validation, deposit-stage validation, the eager min-gas
// gate).
#include "evm/analysis/analysis.hpp"

#include <gtest/gtest.h>

#include "crypto/keccak.hpp"
#include "evm/analysis/cache.hpp"
#include "evm/asm.hpp"
#include "evm/contracts.hpp"
#include "evm/interpreter.hpp"
#include "obs/metrics.hpp"
#include "txn/executor.hpp"
#include "txn/pipeline.hpp"

namespace srbb::evm::analysis {
namespace {

Bytes assemble_or_die(std::string_view source) {
  auto code = assemble(source);
  EXPECT_TRUE(code.is_ok()) << code.message();
  return code.value();
}

Bytes bytes_of(std::initializer_list<std::uint8_t> raw) { return Bytes{raw}; }

// ---------------------------------------------------------------- disasm --

TEST(Disasm, DecodesPushImmediates) {
  const Bytes code = bytes_of({0x60, 0x2a, 0x61, 0x01, 0x02, 0x00});
  const auto instrs = disassemble_code(BytesView{code});
  ASSERT_EQ(instrs.size(), 3u);
  EXPECT_EQ(instrs[0].pc, 0u);
  EXPECT_EQ(instrs[0].imm_size, 1u);
  EXPECT_EQ(instrs[0].immediate, U256{0x2a});
  EXPECT_EQ(instrs[1].pc, 2u);
  EXPECT_EQ(instrs[1].imm_size, 2u);
  EXPECT_EQ(instrs[1].immediate, U256{0x0102});
  EXPECT_EQ(instrs[2].pc, 5u);
  EXPECT_EQ(instrs[2].opcode, 0x00);
}

TEST(Disasm, TruncatedPushZeroPadsLikeTheInterpreter) {
  // PUSH2 with only one immediate byte: decoded as 0xab00, flagged.
  const Bytes code = bytes_of({0x61, 0xab});
  const auto instrs = disassemble_code(BytesView{code});
  ASSERT_EQ(instrs.size(), 1u);
  EXPECT_TRUE(instrs[0].truncated);
  EXPECT_EQ(instrs[0].immediate, U256{0xab00});
}

TEST(Disasm, BitmapMatchesManualScanOnContracts) {
  for (const Contract* c :
       {&counter_contract(), &exchange_contract(), &mobility_contract(),
        &ticketing_contract(), &staking_contract(), &token_contract()}) {
    for (const Bytes* code : {&c->runtime_code, &c->deploy_code}) {
      // Reference scan: the interpreter's historical per-frame loop.
      std::vector<bool> expected(code->size(), false);
      for (std::size_t i = 0; i < code->size(); ++i) {
        const std::uint8_t op = (*code)[i];
        if (op == 0x5b) expected[i] = true;
        if (op >= 0x60 && op <= 0x7f) i += static_cast<std::size_t>(op - 0x5f);
      }
      EXPECT_EQ(jumpdest_bitmap(BytesView{*code}), expected);
    }
  }
}

TEST(Disasm, JumpdestInsidePushImmediateIsNotValid) {
  // PUSH1 0x5b: the 0x5b byte is data, not a JUMPDEST.
  const Bytes code = bytes_of({0x60, 0x5b, 0x5b});
  const auto bitmap = jumpdest_bitmap(BytesView{code});
  ASSERT_EQ(bitmap.size(), 3u);
  EXPECT_FALSE(bitmap[1]);
  EXPECT_TRUE(bitmap[2]);
}

// ------------------------------------------------------------------- cfg --

TEST(Cfg, SplitsBlocksAtJumpdestsAndTerminators) {
  // PUSH1 5 JUMP / INVALID / JUMPDEST STOP
  const Bytes code = assemble_or_die("PUSH1 4 JUMP INVALID JUMPDEST STOP");
  const Cfg cfg = build_cfg(BytesView{code});
  ASSERT_EQ(cfg.blocks.size(), 3u);
  EXPECT_EQ(cfg.blocks[0].terminator, Terminator::kJump);
  EXPECT_TRUE(cfg.blocks[0].jump_resolved);
  EXPECT_EQ(cfg.blocks[0].jump_target, 4u);
  ASSERT_TRUE(cfg.blocks[0].jump_succ.has_value());
  EXPECT_EQ(*cfg.blocks[0].jump_succ, 2u);
  EXPECT_FALSE(cfg.blocks[0].fallthrough.has_value());
  EXPECT_EQ(cfg.blocks[1].terminator, Terminator::kInvalid);
  EXPECT_EQ(cfg.blocks[2].terminator, Terminator::kStop);
  ASSERT_EQ(cfg.jumpdest_blocks.size(), 1u);
  EXPECT_EQ(cfg.jumpdest_blocks[0], 2u);
}

TEST(Cfg, SummarizesStackEffects) {
  // PUSH1 1 PUSH1 2 ADD POP STOP: needed 0, delta 0, peak 2.
  const Bytes code = assemble_or_die("PUSH1 1 PUSH1 2 ADD POP STOP");
  const Cfg cfg = build_cfg(BytesView{code});
  ASSERT_EQ(cfg.blocks.size(), 1u);
  const BasicBlock& b = cfg.blocks[0];
  EXPECT_EQ(b.needed, 0u);
  EXPECT_EQ(b.delta, 0);
  EXPECT_EQ(b.peak, 2u);
  EXPECT_EQ(b.static_gas, 11u);  // 3 + 3 + 3 + 2 + 0
}

TEST(Cfg, ComputedJumpIsUnknownEdge) {
  const Bytes code =
      assemble_or_die("PUSH1 0 CALLDATALOAD JUMP JUMPDEST STOP");
  const Cfg cfg = build_cfg(BytesView{code});
  ASSERT_GE(cfg.blocks.size(), 2u);
  EXPECT_FALSE(cfg.blocks[0].jump_resolved);
  EXPECT_TRUE(cfg.blocks[0].unknown_jump);
}

TEST(Cfg, FallOffEndIsImplicitStop) {
  const Bytes code = assemble_or_die("PUSH1 1 POP");
  const Cfg cfg = build_cfg(BytesView{code});
  ASSERT_EQ(cfg.blocks.size(), 1u);
  EXPECT_EQ(cfg.blocks[0].terminator, Terminator::kFallOffEnd);
}

// -------------------------------------------------------------- verdicts --

TEST(Verdicts, EmptyCodeAccepts) {
  const AnalysisResult r = analyze(BytesView{});
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_EQ(r.min_gas, 0u);
}

TEST(Verdicts, StraightLineAccepts) {
  const AnalysisResult r =
      analyze(BytesView{assemble_or_die("PUSH1 1 PUSH1 2 ADD POP STOP")});
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_EQ(r.min_gas, 11u);
}

TEST(Verdicts, GuaranteedUnderflowRejects) {
  const AnalysisResult r = analyze(BytesView{bytes_of({0x01})});  // ADD
  EXPECT_EQ(r.verdict, Verdict::kReject);
  EXPECT_EQ(r.reject_reason, RejectReason::kUnderflow);
  EXPECT_EQ(r.reject_pc, 0u);
}

TEST(Verdicts, EntryInvalidOpcodeRejects) {
  const AnalysisResult r = analyze(BytesView{bytes_of({0xfe})});
  EXPECT_EQ(r.verdict, Verdict::kReject);
  EXPECT_EQ(r.reject_reason, RejectReason::kInvalidOpcode);
}

TEST(Verdicts, EntryUndefinedOpcodeRejects) {
  const AnalysisResult r = analyze(BytesView{bytes_of({0x0c})});
  EXPECT_EQ(r.verdict, Verdict::kReject);
  EXPECT_EQ(r.reject_reason, RejectReason::kUndefinedOpcode);
}

TEST(Verdicts, StaticJumpToNonJumpdestRejects) {
  const AnalysisResult r =
      analyze(BytesView{assemble_or_die("PUSH1 3 JUMP STOP")});
  EXPECT_EQ(r.verdict, Verdict::kReject);
  EXPECT_EQ(r.reject_reason, RejectReason::kBadJump);
}

TEST(Verdicts, TruncatedPushOnEntryPathRejects) {
  const AnalysisResult r = analyze(BytesView{bytes_of({0x61, 0xab})});
  EXPECT_EQ(r.verdict, Verdict::kReject);
  EXPECT_EQ(r.reject_reason, RejectReason::kTruncatedPush);
}

TEST(Verdicts, GuaranteedOverflowRejects) {
  Bytes code;
  for (int i = 0; i < 1025; ++i) {
    code.push_back(0x60);  // PUSH1 0
    code.push_back(0x00);
  }
  code.push_back(0x00);  // STOP
  const AnalysisResult r = analyze(BytesView{code});
  EXPECT_EQ(r.verdict, Verdict::kReject);
  EXPECT_EQ(r.reject_reason, RejectReason::kOverflow);
}

TEST(Verdicts, UnreachableInvalidStillAccepts) {
  const AnalysisResult r =
      analyze(BytesView{assemble_or_die("PUSH1 4 JUMP INVALID JUMPDEST STOP")});
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_FALSE(r.reachable_invalid);
  EXPECT_EQ(r.min_gas, 12u);  // 3 + 8 + 1 + 0
}

TEST(Verdicts, ReachableInvalidBehindBranchIsUnknown) {
  // Data-dependent branch into INVALID: neither provably safe nor doomed.
  const AnalysisResult r = analyze(BytesView{assemble_or_die(R"(
    PUSH1 0 CALLDATALOAD PUSH @bad JUMPI STOP
    bad: JUMPDEST INVALID
  )")});
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_TRUE(r.reachable_invalid);
}

TEST(Verdicts, ComputedJumpIsUnknown) {
  const AnalysisResult r = analyze(
      BytesView{assemble_or_die("PUSH1 0 CALLDATALOAD JUMP JUMPDEST STOP")});
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_jump_blocks, 1u);
}

TEST(Verdicts, InfiniteLoopHasNoSuccessfulPath) {
  // JUMPDEST PUSH @loop JUMP: never fails structurally, never succeeds.
  const AnalysisResult r = analyze(
      BytesView{assemble_or_die("loop: JUMPDEST PUSH @loop JUMP")});
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_EQ(r.min_gas, AnalysisResult::kNoSuccessfulPath);
}

TEST(Verdicts, MinGasTakesTheCheapestSuccessPath) {
  // Fallthrough STOP costs 19; the branch to the expensive block costs more.
  const AnalysisResult r = analyze(BytesView{assemble_or_die(R"(
    PUSH1 0 CALLDATALOAD PUSH @slow JUMPI STOP
    slow: JUMPDEST PUSH1 1 PUSH1 2 ADD POP STOP
  )")});
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_EQ(r.min_gas, 19u);  // 3 + 3 + 3 + 10 + 0
}

TEST(Verdicts, RevertOnlyCodeHasNoSuccessfulPath) {
  const AnalysisResult r =
      analyze(BytesView{assemble_or_die("PUSH1 0 PUSH1 0 REVERT")});
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_EQ(r.min_gas, AnalysisResult::kNoSuccessfulPath);
}

TEST(Verdicts, OversizeCodeIsConservativelyUnknown) {
  Bytes code(128 * 1024 + 1, 0x5b);  // all JUMPDESTs, over the cap
  const AnalysisResult r = analyze(BytesView{code});
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.jumpdests.size(), code.size());
}

TEST(Verdicts, ShippedContractsAllAccept) {
  for (const Contract* c :
       {&counter_contract(), &exchange_contract(), &mobility_contract(),
        &ticketing_contract(), &staking_contract(), &token_contract()}) {
    EXPECT_EQ(analyze(BytesView{c->runtime_code}).verdict, Verdict::kAccept);
    EXPECT_EQ(analyze(BytesView{c->deploy_code}).verdict, Verdict::kAccept);
  }
}

TEST(Verdicts, FingerprintIsDeterministic) {
  const Bytes code = token_contract().runtime_code;
  const AnalysisResult a = analyze(BytesView{code});
  const AnalysisResult b = analyze(BytesView{code});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Different code, different fingerprint (not a guarantee, but these two).
  const AnalysisResult c = analyze(BytesView{counter_contract().runtime_code});
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// ----------------------------------------------------------------- cache --

TEST(Cache, HitsAfterFirstMiss) {
  AnalysisCache cache;
  const Bytes code = counter_contract().runtime_code;
  const Hash32 key = crypto::Keccak256::hash(BytesView{code});
  const auto first = cache.get(key, BytesView{code});
  const auto second = cache.get(key, BytesView{code});
  EXPECT_EQ(first.get(), second.get());  // same immutable result object
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, HashlessLookupStillCaches) {
  AnalysisCache cache;
  const Bytes code = counter_contract().runtime_code;
  const auto first = cache.get(BytesView{code});
  const auto second = cache.get(BytesView{code});
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(Cache, BoundedCapacitySkipsInsertWhenFull) {
  AnalysisCache cache{1};
  const Bytes a = counter_contract().runtime_code;
  const Bytes b = token_contract().runtime_code;
  (void)cache.get(BytesView{a});
  (void)cache.get(BytesView{b});  // not retained: cache stays at 1 entry
  EXPECT_EQ(cache.size(), 1u);
  (void)cache.get(BytesView{a});
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, MetricsReconcileWithCounters) {
  obs::MetricsRegistry registry;
  AnalysisCache cache;
  cache.set_metrics(&registry);
  const Bytes code = staking_contract().runtime_code;
  for (int i = 0; i < 5; ++i) (void)cache.get(BytesView{code});
  EXPECT_EQ(registry.counter("analysis.cache.miss").value(), cache.misses());
  EXPECT_EQ(registry.counter("analysis.cache.hit").value(), cache.hits());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 4u);
  cache.set_metrics(nullptr);
}

// ----------------------------------------------------- CREATE enforcement --

Address addr(std::uint8_t tag) {
  Address a;
  a[19] = tag;
  return a;
}

struct EvmWorld {
  state::StateDB db;
  BlockContext block;
  TxContext tx;
  Address caller = addr(0xCA);

  EvmWorld() { db.add_balance(caller, U256{1'000'000}); }

  ExecResult create(const Bytes& init_code, bool validate) {
    // The txn layer bumps the sender nonce before the frame runs; doing the
    // same here keeps successive creates from colliding at one address.
    db.increment_nonce(caller);
    Evm evm{db, block, tx};
    evm.set_validate_code(validate);
    Message msg;
    msg.caller = caller;
    msg.is_create = true;
    msg.gas = 1'000'000;
    msg.data = init_code;
    return evm.execute(msg);
  }
};

TEST(CreateGate, RejectsDoomedInitCode) {
  EvmWorld w;
  const Bytes doomed = bytes_of({0x01});  // ADD on an empty stack
  const ExecResult r = w.create(doomed, /*validate=*/true);
  EXPECT_EQ(r.status, ExecStatus::kCodeRejected);
  EXPECT_EQ(r.gas_left, 0u);
}

TEST(CreateGate, ValidationOffRunsTheDoomedCode) {
  EvmWorld w;
  const Bytes doomed = bytes_of({0x01});
  const ExecResult r = w.create(doomed, /*validate=*/false);
  EXPECT_EQ(r.status, ExecStatus::kStackUnderflow);
}

TEST(CreateGate, RejectsDoomedRuntimeCodeAtDeposit) {
  EvmWorld w;
  // Init code is fine; the runtime it returns starts with INVALID.
  const Bytes init = make_deployer(BytesView{bytes_of({0xfe})});
  ASSERT_EQ(analyze(BytesView{init}).verdict, Verdict::kAccept);
  const ExecResult r = w.create(init, /*validate=*/true);
  EXPECT_EQ(r.status, ExecStatus::kCodeRejected);
  // Nothing deployed, no orphan account state.
  EXPECT_TRUE(w.db.code(r.created_address).empty());
}

TEST(CreateGate, ValidationOffDepositsTheDoomedRuntime) {
  EvmWorld w;
  const Bytes init = make_deployer(BytesView{bytes_of({0xfe})});
  const ExecResult r = w.create(init, /*validate=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(w.db.code(r.created_address), bytes_of({0xfe}));
}

TEST(CreateGate, AcceptsShippedDeployments) {
  EvmWorld w;
  for (const Contract* c :
       {&counter_contract(), &exchange_contract(), &token_contract()}) {
    const ExecResult r = w.create(c->deploy_code, /*validate=*/true);
    ASSERT_TRUE(r.ok()) << to_string(r.status);
    EXPECT_EQ(w.db.code(r.created_address), c->runtime_code);
  }
}

// -------------------------------------------------- transaction-level gate --

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::ed25519();
}

struct TxWorld {
  state::StateDB db;
  BlockContext block;
  txn::ExecutionConfig xcfg;
  txn::ValidationConfig vcfg;
  crypto::Identity alice = scheme().make_identity(1);

  TxWorld() { db.add_balance(alice.address(), U256{100'000'000}); }

  txn::Transaction deploy(const Bytes& init_code, std::uint64_t nonce) {
    txn::TxParams params;
    params.kind = txn::TxKind::kDeploy;
    params.nonce = nonce;
    params.data = init_code;
    return txn::make_signed(params, alice, scheme());
  }

  txn::Transaction invoke(const Address& to, std::uint64_t gas_limit,
                          std::uint64_t nonce) {
    txn::TxParams params;
    params.kind = txn::TxKind::kInvoke;
    params.nonce = nonce;
    params.to = to;
    params.gas_limit = gas_limit;
    return txn::make_signed(params, alice, scheme());
  }

  Status eager(const txn::Transaction& tx) const {
    return txn::ValidationPipeline(scheme(), vcfg)
        .validate_one(*txn::make_tx_ptr(tx), db);
  }
};

TEST(TxGate, DeployOfDoomedCodeFailsButConsumesGas) {
  TxWorld w;
  const auto r =
      txn::apply_transaction(w.deploy(bytes_of({0x01}), 0), w.db, w.block,
                             w.xcfg);
  ASSERT_TRUE(r.is_ok()) << r.message();  // valid tx, failed frame
  EXPECT_FALSE(r.value().success);
  EXPECT_GT(r.value().gas_used, 0u);
}

TEST(TxGate, ValidateCodeOffRestoresOldBehaviour) {
  TxWorld w;
  w.xcfg.validate_code = false;
  const Bytes init = make_deployer(BytesView{bytes_of({0xfe})});
  const auto r = txn::apply_transaction(w.deploy(init, 0), w.db, w.block,
                                        w.xcfg);
  ASSERT_TRUE(r.is_ok()) << r.message();
  EXPECT_TRUE(r.value().success);
}

TEST(TxGate, EagerRejectsBudgetBelowStaticMinimum) {
  TxWorld w;
  const Address target = addr(0x42);
  // min_gas 11 (see StraightLineAccepts above).
  w.db.set_code(target, assemble_or_die("PUSH1 1 PUSH1 2 ADD POP STOP"));
  const std::uint64_t intrinsic = 21'000;  // no calldata
  const auto tight = w.invoke(target, intrinsic + 10, 0);
  const Status rejected = w.eager(tight);
  EXPECT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.message().find("static minimum"), std::string::npos);

  const auto enough = w.invoke(target, intrinsic + 11, 0);
  EXPECT_TRUE(w.eager(enough).is_ok());
}

TEST(TxGate, EagerRejectsCalleeWithNoSuccessfulPath) {
  TxWorld w;
  const Address target = addr(0x43);
  w.db.set_code(target, assemble_or_die("loop: JUMPDEST PUSH @loop JUMP"));
  const auto tx = w.invoke(target, 10'000'000, 0);
  EXPECT_FALSE(w.eager(tx).is_ok());
}

TEST(TxGate, NullCacheDisablesTheMinGasGate) {
  TxWorld w;
  const Address target = addr(0x44);
  w.db.set_code(target, assemble_or_die("loop: JUMPDEST PUSH @loop JUMP"));
  w.vcfg.analysis_cache = nullptr;
  const auto tx = w.invoke(target, 10'000'000, 0);
  EXPECT_TRUE(w.eager(tx).is_ok());
}

TEST(TxGate, TransfersBypassTheMinGasGate) {
  TxWorld w;
  // A plain transfer to a code-less address is untouched by check (vi).
  txn::TxParams params;
  params.to = addr(0x45);
  params.value = U256{5};
  params.gas_limit = 30'000;
  const auto tx = txn::make_signed(params, w.alice, scheme());
  EXPECT_TRUE(w.eager(tx).is_ok());
}

// ------------------------------------------------- interpreter cache path --

TEST(InterpreterCache, FramesShareOneAnalysisPerCodeHash) {
  EvmWorld w;
  AnalysisCache cache;
  const Address target = addr(0x50);
  w.db.set_code(target, counter_contract().runtime_code);

  Evm evm{w.db, w.block, w.tx};
  evm.set_analysis_cache(&cache);
  Message msg;
  msg.caller = w.caller;
  msg.to = target;
  msg.gas = 1'000'000;
  msg.data = encode_call("increment()", {});
  ASSERT_TRUE(evm.execute(msg).ok());
  const std::uint64_t misses_after_first = cache.misses();
  EXPECT_EQ(misses_after_first, 1u);

  // Second call in a fresh Evm: the shared cache serves the analysis.
  Evm evm2{w.db, w.block, w.tx};
  evm2.set_analysis_cache(&cache);
  ASSERT_TRUE(evm2.execute(msg).ok());
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_GE(cache.hits(), 1u);
}

TEST(InterpreterCache, NullCacheFallsBackToLocalScan) {
  EvmWorld w;
  const Address target = addr(0x51);
  w.db.set_code(target, counter_contract().runtime_code);
  Evm evm{w.db, w.block, w.tx};
  evm.set_analysis_cache(nullptr);
  Message msg;
  msg.caller = w.caller;
  msg.to = target;
  msg.gas = 1'000'000;
  msg.data = encode_call("increment()", {});
  EXPECT_TRUE(evm.execute(msg).ok());
}

// The CLI and log lines render every enumerator through to_string(); pin the
// strings so a renamed enumerator cannot silently change tool output.
TEST(EnumNames, TerminatorStringsAreStable) {
  EXPECT_STREQ(to_string(Terminator::kFallThrough), "fallthrough");
  EXPECT_STREQ(to_string(Terminator::kJump), "jump");
  EXPECT_STREQ(to_string(Terminator::kJumpI), "jumpi");
  EXPECT_STREQ(to_string(Terminator::kStop), "stop");
  EXPECT_STREQ(to_string(Terminator::kReturn), "return");
  EXPECT_STREQ(to_string(Terminator::kRevert), "revert");
  EXPECT_STREQ(to_string(Terminator::kSelfdestruct), "selfdestruct");
  EXPECT_STREQ(to_string(Terminator::kInvalid), "invalid");
  EXPECT_STREQ(to_string(Terminator::kUndefined), "undefined");
  EXPECT_STREQ(to_string(Terminator::kFallOffEnd), "fall-off-end");
}

TEST(EnumNames, VerdictAndRejectReasonStringsAreStable) {
  EXPECT_STREQ(to_string(Verdict::kAccept), "accept");
  EXPECT_STREQ(to_string(Verdict::kUnknown), "unknown");
  EXPECT_STREQ(to_string(Verdict::kReject), "reject");
  EXPECT_STREQ(to_string(RejectReason::kNone), "none");
  EXPECT_STREQ(to_string(RejectReason::kUnderflow),
               "guaranteed stack underflow");
  EXPECT_STREQ(to_string(RejectReason::kOverflow),
               "guaranteed stack overflow");
  EXPECT_STREQ(to_string(RejectReason::kInvalidOpcode),
               "INVALID on entry path");
  EXPECT_STREQ(to_string(RejectReason::kUndefinedOpcode),
               "undefined opcode on entry path");
  EXPECT_STREQ(to_string(RejectReason::kBadJump),
               "static jump to non-JUMPDEST");
  EXPECT_STREQ(to_string(RejectReason::kTruncatedPush),
               "truncated PUSH on entry path");
}

TEST(Cache, ClearResetsEntriesAndCounters) {
  AnalysisCache cache;
  const Bytes code = assemble_or_die("PUSH1 0 POP STOP");
  const Hash32 key = crypto::Keccak256::hash(BytesView{code});
  (void)cache.get(key, BytesView{code});   // miss
  (void)cache.get(key, BytesView{code});   // hit
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  // Re-analysis after clear is a fresh miss.
  (void)cache.get(key, BytesView{code});
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, DetachingMetricsStopsCounting) {
  obs::MetricsRegistry registry;
  AnalysisCache cache;
  cache.set_metrics(&registry);
  const Bytes code = assemble_or_die("PUSH1 7 POP STOP");
  const Hash32 key = crypto::Keccak256::hash(BytesView{code});
  (void)cache.get(key, BytesView{code});
  EXPECT_EQ(registry.counter("analysis.cache.miss").value(), 1u);

  cache.set_metrics(nullptr);
  (void)cache.get(key, BytesView{code});   // hit, but detached
  EXPECT_EQ(registry.counter("analysis.cache.hit").value(), 0u);
  EXPECT_EQ(registry.counter("analysis.cache.miss").value(), 1u);
  EXPECT_EQ(cache.hits(), 1u);  // internal counters still advance
}

}  // namespace
}  // namespace srbb::evm::analysis
