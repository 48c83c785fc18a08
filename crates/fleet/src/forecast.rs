//! Workload forecasting beyond EWMA: seasonal and trend-aware arrival
//! rate predictors that feed the elastic autoscaler.
//!
//! The [`PredictiveScaler`](crate::PredictiveScaler)'s EWMA answers
//! "what is the rate *now*" with a lag; real transcoding traffic has
//! *structure* — diurnal cycles, weekly seasonality, flash crowds around
//! live events (the dynamics motivating time-varying multi-user video
//! optimization and digital-twin collaborative transcoding). A
//! [`Forecaster`] exploits that structure: it observes one arrival count
//! per epoch and answers "what will the rate be `h` epochs from now", so
//! the [`ForecastScaler`](crate::ForecastScaler) can provision capacity
//! *ahead* of the rise instead of chasing it.
//!
//! Two predictors ship:
//!
//! * [`SeasonalNaive`] — the honest baseline: the forecast for epoch
//!   `t + h` is the observation from exactly one season earlier. Zero
//!   parameters beyond the period; surprisingly hard to beat on strongly
//!   periodic traffic.
//! * [`HoltWinters`] — additive Holt-Winters: smoothed level, additive
//!   trend and additive seasonal components. Tracks drifting baselines
//!   *and* the periodic shape, which the seasonal-naive cannot.
//!
//! Forecaster state is portable through the same std-only binary codec
//! as policy snapshots ([`Forecaster::snapshot_state`] /
//! [`Forecaster::restore_state`]): a scenario sweep can persist a primed
//! predictor and chain runs across process restarts, replaying
//! byte-for-byte.

use mamut_core::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Magic bytes opening every encoded forecaster state.
const FORECAST_MAGIC: &[u8; 8] = b"MAMUTFC\0";

/// Current forecaster-state codec version. Decoders reject newer.
pub const FORECAST_STATE_VERSION: u16 = 1;

/// An arrival-rate predictor consulted by the
/// [`ForecastScaler`](crate::ForecastScaler) once per epoch boundary.
///
/// `Send` for the same reason as [`Autoscaler`](crate::Autoscaler): the
/// fleet owning it may move across threads, but observation and
/// forecasting always run on the coordinating thread, so implementations
/// need no interior synchronization.
pub trait Forecaster: Send {
    /// Predictor name for reports and the state codec's type tag.
    fn name(&self) -> &'static str;

    /// Records one epoch's observed arrivals (`arrivals` sessions over
    /// `epoch_s` virtual seconds). Called once per boundary, in epoch
    /// order.
    fn observe(&mut self, arrivals: usize, epoch_s: f64);

    /// The predicted arrival rate (Hz) `horizon` epochs after the last
    /// observation (`horizon ≥ 1`; a horizon of 0 is treated as 1).
    /// Never negative.
    fn forecast_hz(&self, horizon: u64) -> f64;

    /// Serializes the predictor's full state through the std-only
    /// snapshot codec (magic + version + name tag + fields), so a primed
    /// predictor survives process restarts byte-for-byte.
    fn snapshot_state(&self) -> Vec<u8>;

    /// Restores state captured by [`Forecaster::snapshot_state`] from a
    /// predictor of the same type and shape.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the bytes are not a forecaster state, were
    /// written by a newer codec, carry a different predictor's tag, or
    /// disagree with this predictor's configured period.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;
}

/// Opens a forecaster-state stream: checks magic + version, then the
/// type tag against `expected`.
fn open_state<'a>(
    bytes: &'a [u8],
    expected: &'static str,
) -> Result<SnapshotReader<'a>, SnapshotError> {
    let (mut r, _) = SnapshotReader::open(bytes, FORECAST_MAGIC, FORECAST_STATE_VERSION)?;
    let tag = r.get_str()?;
    if tag != expected {
        return Err(SnapshotError::WrongController {
            expected,
            found: tag,
        });
    }
    Ok(r)
}

/// Starts a forecaster-state stream with magic, version and type tag.
fn begin_state(tag: &str) -> SnapshotWriter {
    let mut w = SnapshotWriter::with_header(FORECAST_MAGIC, FORECAST_STATE_VERSION);
    w.put_str(tag);
    w
}

/// Reads a finite f64 (forecaster state carries rates and smoothing
/// components; NaN/∞ would poison every later forecast).
fn get_finite(r: &mut SnapshotReader, what: &'static str) -> Result<f64, SnapshotError> {
    let v = r.get_f64()?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(SnapshotError::Corrupt(what))
    }
}

/// Seasonal-naive forecasting: the prediction for `h` epochs ahead is
/// the observation from exactly one season (or the fewest whole seasons
/// covering `h`) earlier.
///
/// Before a full season of history exists the forecast falls back to
/// the running mean of what has been observed (0 with no history) —
/// the same cold-start behavior as an unprimed EWMA. State is bounded:
/// only the newest observation per season slot is kept (a ring of
/// `period` rates), so memory and the persisted state stay O(period)
/// however long the run — forecasts only ever read the most recent
/// observation at the matching phase.
#[derive(Debug, Clone)]
pub struct SeasonalNaive {
    period: usize,
    /// Newest rate per season slot (`slot = t % period`); filled in
    /// order during the first season, overwritten in place after.
    ring: Vec<f64>,
    /// Total epochs observed over the predictor's lifetime.
    observations: u64,
    /// Sum of the first (pre-priming) season's rates, for the
    /// cold-start mean.
    cold_sum: f64,
}

impl SeasonalNaive {
    /// A predictor for a season of `period_epochs` epochs (clamped to
    /// ≥ 1).
    pub fn new(period_epochs: usize) -> Self {
        SeasonalNaive {
            period: period_epochs.max(1),
            ring: Vec::new(),
            observations: 0,
            cold_sum: 0.0,
        }
    }

    /// The configured season length (epochs).
    pub fn period_epochs(&self) -> usize {
        self.period
    }

    /// Epochs observed over the predictor's lifetime.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

impl Forecaster for SeasonalNaive {
    fn name(&self) -> &'static str {
        "seasonal-naive"
    }

    fn observe(&mut self, arrivals: usize, epoch_s: f64) {
        let rate = arrivals as f64 / epoch_s.max(1e-9);
        let slot = (self.observations % self.period as u64) as usize;
        if self.ring.len() < self.period {
            self.cold_sum += rate;
            self.ring.push(rate); // first season fills in slot order
        } else {
            self.ring[slot] = rate;
        }
        self.observations += 1;
    }

    fn forecast_hz(&self, horizon: u64) -> f64 {
        let h = horizon.max(1);
        if self.observations < self.period as u64 {
            // Cold start: the running mean of the partial first season.
            return if self.observations == 0 {
                0.0
            } else {
                (self.cold_sum / self.observations as f64).max(0.0)
            };
        }
        // ŷ(T+h) = y(T + h − m·⌈h/m⌉) — and since the lag is a whole
        // number of seasons, that is exactly the newest observation in
        // the target's season slot.
        let slot = ((self.observations + h - 1) % self.period as u64) as usize;
        self.ring[slot].max(0.0)
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = begin_state(self.name());
        w.put_u32(self.period as u32);
        w.put_u64(self.observations);
        w.put_f64(self.cold_sum);
        w.put_u32(self.ring.len() as u32);
        for &v in &self.ring {
            w.put_f64(v);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = open_state(bytes, self.name())?;
        let period = r.get_u32()? as usize;
        if period != self.period {
            return Err(SnapshotError::ShapeMismatch(
                "seasonal-naive period differs",
            ));
        }
        let observations = r.get_u64()?;
        let cold_sum = get_finite(&mut r, "non-finite cold-start sum")?;
        let n = r.get_count(8)?;
        if n > self.period || n as u64 > observations {
            return Err(SnapshotError::Corrupt("seasonal ring longer than history"));
        }
        let mut ring = Vec::with_capacity(n);
        for _ in 0..n {
            ring.push(get_finite(&mut r, "non-finite rate in ring")?);
        }
        r.expect_end()?;
        self.ring = ring;
        self.observations = observations;
        self.cold_sum = cold_sum;
        Ok(())
    }
}

/// Additive Holt-Winters: exponential smoothing with a level, an
/// additive trend and an additive seasonal component of period `m`.
///
/// The first `m` observations prime the components (level = season mean,
/// trend = mean first-season slope, seasonal = deviations from the
/// mean); from then on the standard recurrences run per epoch:
///
/// ```text
/// ℓ_t = α (y_t − s_{t−m}) + (1 − α)(ℓ_{t−1} + b_{t−1})
/// b_t = β (ℓ_t − ℓ_{t−1}) + (1 − β) b_{t−1}
/// s_t = γ (y_t − ℓ_t)     + (1 − γ) s_{t−m}
/// ŷ_{t+h} = max(0, ℓ_t + h·b_t + s_{t+h−m})
/// ```
#[derive(Debug, Clone)]
pub struct HoltWinters {
    /// Level smoothing factor in `(0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor in `[0, 1]`.
    pub beta: f64,
    /// Seasonal smoothing factor in `[0, 1]`.
    pub gamma: f64,
    period: usize,
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    /// Observations buffered until one full season primes the state.
    warmup: Vec<f64>,
    /// Observations consumed since priming (indexes the seasonal ring).
    steps: u64,
    primed: bool,
}

impl HoltWinters {
    /// A predictor for a season of `period_epochs` epochs (clamped to
    /// ≥ 1) with moderate defaults: α = 0.4, β = 0.1, γ = 0.3.
    pub fn new(period_epochs: usize) -> Self {
        let period = period_epochs.max(1);
        HoltWinters {
            alpha: 0.4,
            beta: 0.1,
            gamma: 0.3,
            period,
            level: 0.0,
            trend: 0.0,
            seasonal: vec![0.0; period],
            warmup: Vec::new(),
            steps: 0,
            primed: false,
        }
    }

    /// Overrides the smoothing factors (α clamped into `(0, 1]`, β and
    /// γ into `[0, 1]`).
    pub fn with_smoothing(mut self, alpha: f64, beta: f64, gamma: f64) -> Self {
        self.alpha = alpha.clamp(1e-6, 1.0);
        self.beta = beta.clamp(0.0, 1.0);
        self.gamma = gamma.clamp(0.0, 1.0);
        self
    }

    /// The configured season length (epochs).
    pub fn period_epochs(&self) -> usize {
        self.period
    }

    /// Whether a full season has primed the components.
    pub fn is_primed(&self) -> bool {
        self.primed
    }

    /// The current smoothed level (Hz), 0 before priming.
    pub fn level_hz(&self) -> f64 {
        self.level
    }

    /// The current per-epoch trend (Hz/epoch), 0 before priming.
    pub fn trend_hz_per_epoch(&self) -> f64 {
        self.trend
    }
}

impl Forecaster for HoltWinters {
    fn name(&self) -> &'static str {
        "holt-winters"
    }

    fn observe(&mut self, arrivals: usize, epoch_s: f64) {
        let y = arrivals as f64 / epoch_s.max(1e-9);
        if !self.primed {
            self.warmup.push(y);
            if self.warmup.len() == self.period {
                let mean = self.warmup.iter().sum::<f64>() / self.period as f64;
                self.level = mean;
                self.trend = if self.period > 1 {
                    (self.warmup[self.period - 1] - self.warmup[0]) / (self.period - 1) as f64
                } else {
                    0.0
                };
                for (slot, &obs) in self.seasonal.iter_mut().zip(&self.warmup) {
                    *slot = obs - mean;
                }
                self.warmup.clear();
                self.primed = true;
            }
            return;
        }
        let s_idx = (self.steps % self.period as u64) as usize;
        let prev_level = self.level;
        self.level = self.alpha * (y - self.seasonal[s_idx])
            + (1.0 - self.alpha) * (self.level + self.trend);
        self.trend = self.beta * (self.level - prev_level) + (1.0 - self.beta) * self.trend;
        self.seasonal[s_idx] =
            self.gamma * (y - self.level) + (1.0 - self.gamma) * self.seasonal[s_idx];
        self.steps += 1;
    }

    fn forecast_hz(&self, horizon: u64) -> f64 {
        let h = horizon.max(1);
        if !self.primed {
            // Cold start: the running mean of the warmup buffer.
            return if self.warmup.is_empty() {
                0.0
            } else {
                (self.warmup.iter().sum::<f64>() / self.warmup.len() as f64).max(0.0)
            };
        }
        let s_idx = ((self.steps + h - 1) % self.period as u64) as usize;
        (self.level + h as f64 * self.trend + self.seasonal[s_idx]).max(0.0)
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = begin_state(self.name());
        w.put_u32(self.period as u32);
        w.put_f64(self.alpha);
        w.put_f64(self.beta);
        w.put_f64(self.gamma);
        w.put_bool(self.primed);
        w.put_u64(self.steps);
        w.put_f64(self.level);
        w.put_f64(self.trend);
        for &s in &self.seasonal {
            w.put_f64(s);
        }
        w.put_u32(self.warmup.len() as u32);
        for &v in &self.warmup {
            w.put_f64(v);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = open_state(bytes, self.name())?;
        let period = r.get_u32()? as usize;
        if period != self.period {
            return Err(SnapshotError::ShapeMismatch("holt-winters period differs"));
        }
        let alpha = get_finite(&mut r, "non-finite alpha")?;
        let beta = get_finite(&mut r, "non-finite beta")?;
        let gamma = get_finite(&mut r, "non-finite gamma")?;
        let primed = r.get_bool()?;
        let steps = r.get_u64()?;
        let level = get_finite(&mut r, "non-finite level")?;
        let trend = get_finite(&mut r, "non-finite trend")?;
        let mut seasonal = Vec::with_capacity(period);
        for _ in 0..period {
            seasonal.push(get_finite(&mut r, "non-finite seasonal component")?);
        }
        let n = r.get_count(8)?;
        let mut warmup = Vec::with_capacity(n);
        for _ in 0..n {
            warmup.push(get_finite(&mut r, "non-finite warmup rate")?);
        }
        r.expect_end()?;
        self.alpha = alpha;
        self.beta = beta;
        self.gamma = gamma;
        self.primed = primed;
        self.steps = steps;
        self.level = level;
        self.trend = trend;
        self.seasonal = seasonal;
        self.warmup = warmup;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One diurnal-ish period of arrival counts (epoch_s = 1).
    fn season() -> Vec<usize> {
        vec![1, 2, 4, 7, 9, 10, 9, 7, 4, 2, 1, 0]
    }

    fn feed(f: &mut dyn Forecaster, counts: &[usize]) {
        for &c in counts {
            f.observe(c, 1.0);
        }
    }

    #[test]
    fn seasonal_naive_repeats_last_season() {
        let mut f = SeasonalNaive::new(12);
        feed(&mut f, &season());
        // Next epoch aligns with the season's first slot.
        assert_eq!(f.forecast_hz(1), 1.0);
        assert_eq!(f.forecast_hz(5), 9.0);
        assert_eq!(f.forecast_hz(12), 0.0);
        // Beyond one season it wraps to the matching phase.
        assert_eq!(f.forecast_hz(13), 1.0);
    }

    #[test]
    fn seasonal_naive_state_stays_bounded_by_the_period() {
        // The predictor keeps one rate per season slot, so its memory
        // and persisted state must not grow with run length.
        let mut short = SeasonalNaive::new(4);
        feed(&mut short, &[1, 2, 3, 4]);
        let mut long = SeasonalNaive::new(4);
        for i in 0..10_000usize {
            long.observe(i % 7, 1.0);
        }
        assert_eq!(
            short.snapshot_state().len(),
            long.snapshot_state().len(),
            "state grew with observations"
        );
        // And the long-lived ring forecasts from the *latest* season:
        // the final observations t = 9996..9999 land in slots 0..3 with
        // rates t % 7 = 0, 1, 2, 3.
        assert_eq!(long.forecast_hz(1), 0.0); // slot (10000+0) % 4 = 0
        assert_eq!(long.forecast_hz(4), 3.0); // slot 3, newest = 9999
    }

    #[test]
    fn seasonal_naive_cold_start_uses_the_running_mean() {
        let mut f = SeasonalNaive::new(12);
        assert_eq!(f.forecast_hz(1), 0.0);
        feed(&mut f, &[4, 8]);
        assert!((f.forecast_hz(3) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_history_forecasts_zero_at_every_horizon() {
        // The RL featurizer's forecast-error bucket divides by the
        // forecast; a fresh predictor must answer a clean 0 Hz, not NaN.
        let sn = SeasonalNaive::new(6);
        let hw = HoltWinters::new(6);
        for h in [0u64, 1, 5, 100] {
            assert_eq!(sn.forecast_hz(h), 0.0, "seasonal-naive at h={h}");
            assert_eq!(hw.forecast_hz(h), 0.0, "holt-winters at h={h}");
        }
        // Snapshots of the empty state round-trip too.
        let mut sn2 = SeasonalNaive::new(6);
        sn2.restore_state(&sn.snapshot_state()).unwrap();
        assert_eq!(sn2.snapshot_state(), sn.snapshot_state());
        let mut hw2 = HoltWinters::new(6);
        hw2.restore_state(&hw.snapshot_state()).unwrap();
        assert_eq!(hw2.snapshot_state(), hw.snapshot_state());
    }

    #[test]
    fn partial_first_season_falls_back_to_the_running_mean() {
        // History shorter than one season: both predictors answer the
        // mean of what they have seen, independent of the horizon — the
        // honest cold-start before any seasonal structure exists.
        let mut sn = SeasonalNaive::new(12);
        let mut hw = HoltWinters::new(12);
        feed(&mut sn, &[2, 4, 6]);
        feed(&mut hw, &[2, 4, 6]);
        for h in 1..=24 {
            assert!((sn.forecast_hz(h) - 4.0).abs() < 1e-12, "sn at h={h}");
            assert!((hw.forecast_hz(h) - 4.0).abs() < 1e-12, "hw at h={h}");
        }
        assert!(!hw.is_primed(), "eleven of twelve slots must not prime");
        // One more epoch completes the season for neither (11 < 12)…
        feed(&mut hw, &[8; 8]);
        assert!(!hw.is_primed());
        // …the twelfth does.
        hw.observe(8, 1.0);
        assert!(hw.is_primed());
    }

    #[test]
    fn holt_winters_primes_after_one_season_and_tracks_the_shape() {
        let mut f = HoltWinters::new(12).with_smoothing(0.4, 0.1, 0.3);
        feed(&mut f, &season());
        assert!(f.is_primed());
        // After priming, the forecast follows the seasonal shape: the
        // next peak slot must be predicted far above the next trough.
        let peak = f.forecast_hz(6); // slot 5 (rate 10) comes 6 epochs on
        let trough = f.forecast_hz(12); // slot 11 (rate 0)
        assert!(
            peak > trough + 5.0,
            "seasonal shape lost: peak {peak}, trough {trough}"
        );
    }

    #[test]
    fn holt_winters_learns_a_trend() {
        // Flat season, then every epoch 0.5 higher than the matching
        // slot last season: the trend component must push forecasts up.
        let mut f = HoltWinters::new(4).with_smoothing(0.5, 0.5, 0.3);
        for i in 0..40 {
            f.observe(10 + i / 4, 1.0);
        }
        assert!(
            f.trend_hz_per_epoch() > 0.05,
            "trend {} never picked up",
            f.trend_hz_per_epoch()
        );
        assert!(f.forecast_hz(8) > f.forecast_hz(1));
    }

    #[test]
    fn forecasts_are_never_negative() {
        let mut f = HoltWinters::new(4);
        feed(&mut f, &[8, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        for h in 1..10 {
            assert!(f.forecast_hz(h) >= 0.0, "negative forecast at h={h}");
        }
    }

    #[test]
    fn zero_horizon_is_treated_as_one() {
        let mut f = SeasonalNaive::new(3);
        feed(&mut f, &[1, 2, 3]);
        assert_eq!(f.forecast_hz(0), f.forecast_hz(1));
        let mut hw = HoltWinters::new(3);
        feed(&mut hw, &[1, 2, 3, 1, 2, 3]);
        assert_eq!(hw.forecast_hz(0), hw.forecast_hz(1));
    }

    /// Both predictors: a restored clone must continue exactly like the
    /// original — same forecasts before and after further observations.
    #[test]
    fn state_round_trip_continues_identically() {
        let history = season();
        let future = [3usize, 6, 9, 6, 3, 1];
        let check = |mut a: Box<dyn Forecaster>, mut b: Box<dyn Forecaster>| {
            feed(a.as_mut(), &history);
            b.restore_state(&a.snapshot_state()).unwrap();
            for h in 1..=16 {
                assert_eq!(a.forecast_hz(h).to_bits(), b.forecast_hz(h).to_bits());
            }
            for &c in &future {
                a.observe(c, 2.0);
                b.observe(c, 2.0);
            }
            for h in 1..=16 {
                assert_eq!(a.forecast_hz(h).to_bits(), b.forecast_hz(h).to_bits());
            }
            assert_eq!(a.snapshot_state(), b.snapshot_state());
        };
        check(
            Box::new(SeasonalNaive::new(12)),
            Box::new(SeasonalNaive::new(12)),
        );
        check(
            Box::new(HoltWinters::new(12)),
            Box::new(HoltWinters::new(12)),
        );
        // Mid-warmup state also round-trips.
        let mut hw = HoltWinters::new(12);
        feed(&mut hw, &season()[..5]);
        let mut fresh = HoltWinters::new(12);
        fresh.restore_state(&hw.snapshot_state()).unwrap();
        assert!(!fresh.is_primed());
        assert_eq!(fresh.forecast_hz(1).to_bits(), hw.forecast_hz(1).to_bits());
    }

    #[test]
    fn state_codec_rejects_foreign_and_mangled_streams() {
        let mut sn = SeasonalNaive::new(4);
        feed(&mut sn, &[1, 2, 3, 4]);
        let bytes = sn.snapshot_state();
        // Wrong type tag.
        let mut hw = HoltWinters::new(4);
        assert!(matches!(
            hw.restore_state(&bytes),
            Err(SnapshotError::WrongController { .. })
        ));
        // Wrong period.
        let mut other = SeasonalNaive::new(8);
        assert!(matches!(
            other.restore_state(&bytes),
            Err(SnapshotError::ShapeMismatch(_))
        ));
        // Bad magic and truncation.
        let mut fresh = SeasonalNaive::new(4);
        assert_eq!(
            fresh.restore_state(b"JUNKJUNKJUNK"),
            Err(SnapshotError::BadMagic)
        );
        for cut in FORECAST_MAGIC.len()..bytes.len() {
            assert!(
                fresh.restore_state(&bytes[..cut]).is_err(),
                "cut at {cut} slipped through"
            );
        }
        // A failed restore leaves the original state untouched.
        assert_eq!(fresh.observations(), 0);
    }
}
