import math

import numpy as np
import pytest
from scipy.special import ndtri

from wcfar.estimators import estimate_pfa_worst_case
from wcfar.inference import fit
from wcfar.metrics import eer_threshold
from wcfar.model import Hyperparameters, predict_pfa
from wcfar.synthetic import SyntheticSpec, ToyAsvSpec, model_blocks, toy_asv_blocks

import corpora

Z99 = float(ndtri(0.995))
THETA = Hyperparameters(0.0, 1.0, 4.0, 3.0, 4.0, 4.0)


class TestModelCorpus:
    def test_counts_and_ids(self):
        spec = SyntheticSpec(
            theta=THETA, t_targets=2, n_impostors_per_target=3, l_scores_per_pair=4, seed=1
        )
        corpus = corpora.pack(model_blocks(spec))
        assert corpus.n_scores == 2 * 3 * 4
        assert corpus.target_ids == ("t0001", "t0002")
        assert corpus.impostor_ids[corpus.pair_impostor[1]] == "i0001_0002"

    def test_seed_reproducibility(self):
        spec = SyntheticSpec(
            theta=THETA, t_targets=3, n_impostors_per_target=2, l_scores_per_pair=5, seed=9
        )
        assert corpora.pack(model_blocks(spec)) == corpora.pack(model_blocks(spec))
        other = SyntheticSpec(
            theta=THETA, t_targets=3, n_impostors_per_target=2, l_scores_per_pair=5, seed=10
        )
        assert corpora.pack(model_blocks(other)) != corpora.pack(model_blocks(spec))

    def test_grand_mean_tracks_location(self):
        theta = THETA.replace(mu0=3.0)
        spec = SyntheticSpec(
            theta=theta, t_targets=400, n_impostors_per_target=20, l_scores_per_pair=10, seed=2
        )
        assert corpora.pack(model_blocks(spec)).scores.mean() == pytest.approx(3.0, abs=0.1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(theta=THETA, t_targets=0, n_impostors_per_target=1, l_scores_per_pair=1, seed=0)

    def test_recovery_loop(self):
        # generate from known parameters, fit, and compare the identifiable
        # summaries (location, mean precision multiplier, mean inverse variance)
        spec = SyntheticSpec(
            theta=THETA, t_targets=300, n_impostors_per_target=30, l_scores_per_pair=15, seed=23
        )
        report = fit(corpora.pack(model_blocks(spec)))
        h = report.hyperparameters
        assert report.converged
        assert h.mu0 == pytest.approx(THETA.mu0, abs=0.15)
        assert h.alpha_lambda / h.beta_lambda == pytest.approx(1.0, rel=0.15)
        assert h.a_sigma / h.b_sigma == pytest.approx(4.0 / 3.0, rel=0.15)

    def test_estimator_matches_model_prediction_on_model_data(self):
        # closest-of-N estimation on corpora drawn from the model must agree
        # with the model's own prediction, up to the sampling noise of the
        # finite corpus, which the empirical interval across targets
        # measures, and the outer-loop noise of the model predictor
        spec = SyntheticSpec(
            theta=THETA, t_targets=2000, n_impostors_per_target=100, l_scores_per_pair=20, seed=53
        )
        packed = corpora.pack(model_blocks(spec))
        sizes = [1, 10, 50]
        models = predict_pfa(THETA, 1.5, sizes, seed=55, t_outer=5_000, scores_per_pair=20)
        for n, model in zip(sizes, models):
            emp = estimate_pfa_worst_case(packed, 1.5, n)
            se_emp = (emp.ci_high - emp.ci_low) / (2.0 * Z99)
            se_model = (model.ci_high - model.ci_low) / (2.0 * Z99)
            tolerance = Z99 * math.hypot(se_emp, se_model)
            assert abs(emp.value - model.value) <= tolerance, f"N={n}"


class TestToyAsv:
    SPEC = ToyAsvSpec(
        embedding_dim=64,
        speaker_spread=1.0,
        utterance_noise=1.5,
        n_speakers=200,
        n_utts_per_speaker=10,
        seed=51,
    )

    def test_structure(self):
        small = ToyAsvSpec(
            embedding_dim=8, speaker_spread=1.0, utterance_noise=0.5,
            n_speakers=5, n_utts_per_speaker=3, seed=3,
        )
        blocks, labels = toy_asv_blocks(small)
        corpus, labeled = corpora.pack(blocks), corpora.labeled(labels)
        assert corpus.n_targets == 5
        assert corpus.pairs_per_target.tolist() == [4] * 5
        assert corpus.n_scores == 5 * 4 * 9
        # 3 utterance pairs per speaker, 10 unordered speaker pairs x 9 trials
        assert len(labeled.target_scores) == 5 * 3
        assert len(labeled.nontarget_scores) == 10 * 9

    def test_zero_noise_limit(self):
        spec = ToyAsvSpec(
            embedding_dim=8, speaker_spread=1.0, utterance_noise=1e-12,
            n_speakers=4, n_utts_per_speaker=3, seed=4,
        )
        labeled = corpora.labeled(toy_asv_blocks(spec)[1])
        assert np.allclose(labeled.target_scores, 1.0, atol=1e-9)

    def test_indistinct_speakers_give_chance_eer(self):
        spec = ToyAsvSpec(
            embedding_dim=16, speaker_spread=1e-9, utterance_noise=1.0,
            n_speakers=40, n_utts_per_speaker=8, seed=5,
        )
        labeled = corpora.labeled(toy_asv_blocks(spec)[1])
        _, eer, _ = eer_threshold(labeled)
        assert eer == pytest.approx(0.5, abs=0.03)

    def test_requires_two_utterances(self):
        with pytest.raises(ValueError, match="target trials"):
            toy_asv_blocks(
                ToyAsvSpec(embedding_dim=4, speaker_spread=1.0, utterance_noise=0.5,
                           n_speakers=3, n_utts_per_speaker=1, seed=1)
            )

    def test_requires_two_speakers(self):
        with pytest.raises(ValueError, match="non-target trials"):
            toy_asv_blocks(
                ToyAsvSpec(embedding_dim=4, speaker_spread=1.0, utterance_noise=0.5,
                           n_speakers=1, n_utts_per_speaker=3, seed=1)
            )

    @pytest.mark.parametrize("field, message", [
        ("embedding_dim", "dimensions and counts must be >= 1"),
        ("speaker_spread", "spread parameters must be positive"),
    ], ids=["embedding_dim", "speaker_spread"])
    def test_spec_validation(self, field, message):
        spec = dict(embedding_dim=4, speaker_spread=1.0, utterance_noise=0.5, n_speakers=3, n_utts_per_speaker=2, seed=1)
        with pytest.raises(ValueError, match=message):
            ToyAsvSpec(**{**spec, field: 0})

    def test_pair_scores_gaussian_in_high_dimension(self):
        # the squared-distance score has a chi-square component whose skew
        # scales like 1/sqrt(d); raising the dimension must drive the
        # per-pair score distribution toward Gaussian
        def mean_skew(d):
            blocks, _ = toy_asv_blocks(
                ToyAsvSpec(
                    embedding_dim=d, speaker_spread=1.0, utterance_noise=0.5,
                    n_speakers=60, n_utts_per_speaker=10, seed=51,
                )
            )
            corpus = corpora.pack(blocks)
            return float(np.nanmean(corpus.pair_skewness()))

        low_d, high_d = mean_skew(16), mean_skew(256)
        assert abs(high_d) < abs(low_d)
        assert abs(high_d) < 0.1

    def test_worst_case_rate_grows_with_population(self):
        blocks, labels = toy_asv_blocks(self.SPEC)
        corpus, labeled = corpora.pack(blocks), corpora.labeled(labels)
        tau, eer, _ = eer_threshold(labeled)
        assert 0.05 < eer < 0.35
        estimates = [
            estimate_pfa_worst_case(corpus, tau, n)
            for n in (1, 10, 100)
        ]
        for smaller, larger in zip(estimates, estimates[1:]):
            assert larger.ci_low > smaller.ci_high  # strict increase beyond CI
