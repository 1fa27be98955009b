"""The mutant ledger: src/ mutants that the named tests must kill.

Each row names a mutant, the file it edits (relative to the repository root), the exact text it
replaces, which must occur once in that file, the replacement, and the test node ids that must
fail once it is applied.  scripts/mutants.py runs the rows; tests/test_mutants.py checks that
each old text still occurs exactly once, so that a row cannot silently stop applying.  A change
that deletes or merges a test adds a row here, or names a row whose nodes still kill it.
"""

from collections import namedtuple

Mutant = namedtuple("Mutant", "name path old new nodes")

MODMATH, SDVS_MR, CLI = "src/dvsig/modmath.py", "src/dvsig/sdvs_mr.py", "src/dvsig/cli.py"
COMB_MODEL = "tests/test_modmath.py::test_marked_bases_follow_the_comb_model"
TOY_MODEL = "tests/test_textbook.py::test_every_toy_signature_is_the_models"

MUTANTS = [
    Mutant("comb-built-one-power-early", MODMATH,
           "if self.uses < self.after:", "if self.uses < self.after - 1:",
           [COMB_MODEL]),
    Mutant("combs-from-511-bits", MODMATH,
           "_TABLE_MIN_MODULUS = 1 << (512 - 1)", "_TABLE_MIN_MODULUS = 1 << (512 - 2)",
           [COMB_MODEL]),
    Mutant("comb-not-bound-to-its-modulus", MODMATH,
           "return comb if comb.modulus == modulus else None", "return comb",
           [COMB_MODEL]),
    Mutant("comb-wide-exponent-falls-back", MODMATH,
           "exp.bit_length() > comb.width", "exp.bit_length() >= comb.width",
           [COMB_MODEL,
            "tests/test_exp_counts.py::test_the_verifier_secret_reaches_t_only_after_its_subgroup_test"]),
    Mutant("sign-leaves-s-unreduced", SDVS_MR,
           "s = mod_inv(k1, q) * (signer_secret * r - k2) % q",
           "s = mod_inv(k1, q) * (signer_secret * r - k2)",
           ["tests/test_sdvs_mr.py::test_sign_worked_vector", TOY_MODEL]),
    Mutant("recover-skips-the-e-subgroup-test", SDVS_MR,
           "if e is not None and mod_exp(e, q, p) != 1:", "if False:",
           ["tests/test_recovery_core.py::test_each_designation_fault_rejects_with_its_message",
            TOY_MODEL]),
    Mutant("saeednia-verify-skips-in-subgroup", "src/dvsig/sdvs_saeednia.py",
           "1 <= signer_public < p\n            and in_subgroup(params, signer_public)):",
           "1 <= signer_public < p):",
           ["tests/test_sdvs_saeednia.py::test_small_subgroup_signer_key_probe_rejects_every_guess",
            TOY_MODEL]),
    Mutant("simulate-t-from-w1", SDVS_MR,
           "t = mod_exp(signer_public, w1_inv, p)", "t = mod_exp(signer_public, w1, p)",
           ["tests/test_sdvs_mr.py::test_simulate_worked_vector",
            "tests/test_udvs.py::test_simulate_worked_vector"]),
    Mutant("cli-designates-to-the-signer-key", CLI,
           "dsg(params, signer_public, verifier_public, pv_sig, d, mode)",
           "dsg(params, signer_public, signer_public, pv_sig, d, mode)",
           ["tests/test_cli.py::test_pv_pipeline_with_designation",
            "tests/test_cli_golden.py::test_seeded_output_matches_recorded_digest[toy23-stub-designate]"]),
    Mutant("cli-open-always-accepts", CLI,
           "accepted = expected is None", "accepted = True",
           ["tests/test_cli.py::test_pv_verify_expect_mismatch"]),
]
