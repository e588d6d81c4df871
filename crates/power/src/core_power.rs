//! The DVS core power model `P(s) = α + β·s^λ`.

use sdem_types::{Cycles, Joules, Speed, Time, Watts};

/// Power model of one homogeneous DVS core.
///
/// * `alpha` — static power `α`; when zero the core is free while idle
///   (the paper's `α = 0` model), otherwise idle cores should sleep;
/// * `beta`, `lambda` — the dynamic power curve `P_d(s) = β·s^λ`, `λ > 1`;
/// * `min_speed`, `max_speed` — the platform frequency range (`s_up` is
///   `max_speed`; `min_speed` is informational for validation);
/// * `break_even` — the core's sleep-transition break-even time `ξ`.
///
/// All values are stored in SI units; use
/// [`CorePower::from_paper_units`] to enter the paper's mW/MHz numbers.
///
/// # Examples
///
/// ```
/// use sdem_power::CorePower;
/// use sdem_types::Speed;
///
/// let core = CorePower::cortex_a57();
/// let p = core.power(Speed::from_mhz(1900.0));
/// // ~0.31 W static + ~1.74 W dynamic at fmax.
/// assert!((p.value() - 2.045).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorePower {
    alpha: Watts,
    beta: f64,
    lambda: f64,
    min_speed: Speed,
    max_speed: Speed,
    break_even: Time,
}

impl CorePower {
    /// Creates a core model from SI quantities. `beta` is in `W / Hz^λ`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 1`, `beta <= 0`, `alpha < 0`, or the speed range
    /// is empty/negative.
    pub fn new(alpha: Watts, beta: f64, lambda: f64, min_speed: Speed, max_speed: Speed) -> Self {
        assert!(lambda > 1.0, "power exponent λ must exceed 1");
        assert!(beta > 0.0, "dynamic coefficient β must be positive");
        assert!(alpha.value() >= 0.0, "static power α must be non-negative");
        assert!(
            min_speed.value() >= 0.0 && max_speed > min_speed,
            "speed range must be non-empty and non-negative"
        );
        Self {
            alpha,
            beta,
            lambda,
            min_speed,
            max_speed,
            break_even: Time::ZERO,
        }
    }

    /// Creates a core model from the paper's customary units:
    /// `beta_mw_per_mhz_lambda` in mW/MHz^λ, `alpha_mw` in mW, frequencies
    /// in MHz.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CorePower::new`].
    pub fn from_paper_units(
        alpha_mw: f64,
        beta_mw_per_mhz_lambda: f64,
        lambda: f64,
        min_mhz: f64,
        max_mhz: f64,
    ) -> Self {
        // mW → W is 1e-3; each MHz^λ in the denominator is (1e6)^λ Hz^λ.
        let beta_si = beta_mw_per_mhz_lambda * 1e-3 / 1e6f64.powf(lambda);
        Self::new(
            Watts::from_milliwatts(alpha_mw),
            beta_si,
            lambda,
            Speed::from_mhz(min_mhz),
            Speed::from_mhz(max_mhz),
        )
    }

    /// The ARM Cortex-A57 parameters used in the paper's evaluation
    /// (§8.1.3): `β = 2.53·10⁻⁷ mW/MHz³`, `α = 310 mW`, `λ = 3`,
    /// frequency range 700–1900 MHz.
    pub fn cortex_a57() -> Self {
        Self::from_paper_units(310.0, 2.53e-7, 3.0, 700.0, 1900.0)
    }

    /// A dimensionless test model (`α`, `β`, `λ` given directly, unbounded
    /// speed range) convenient for unit tests and analytical cross-checks.
    pub fn simple(alpha: f64, beta: f64, lambda: f64) -> Self {
        Self::new(
            Watts::new(alpha),
            beta,
            lambda,
            Speed::ZERO,
            Speed::from_hz(f64::INFINITY),
        )
    }

    /// Returns a copy with the core break-even time `ξ` set.
    ///
    /// # Panics
    ///
    /// Panics if `xi` is negative or non-finite.
    #[must_use]
    pub fn with_break_even(mut self, xi: Time) -> Self {
        assert!(
            xi.is_finite() && xi.value() >= 0.0,
            "break-even time must be finite and non-negative"
        );
        self.break_even = xi;
        self
    }

    /// Returns a copy with a different maximum speed `s_up`.
    ///
    /// # Panics
    ///
    /// Panics if `s_up` does not exceed the minimum speed.
    #[must_use]
    pub fn with_max_speed(mut self, s_up: Speed) -> Self {
        assert!(s_up > self.min_speed, "s_up must exceed the minimum speed");
        self.max_speed = s_up;
        self
    }

    /// Static power `α`.
    #[inline]
    pub fn alpha(&self) -> Watts {
        self.alpha
    }

    /// `true` if the static power is exactly zero (the `α = 0` model).
    #[inline]
    pub fn is_alpha_zero(&self) -> bool {
        self.alpha.value() == 0.0
    }

    /// Dynamic coefficient `β` in `W / Hz^λ`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Power exponent `λ`.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Minimum platform speed.
    #[inline]
    pub fn min_speed(&self) -> Speed {
        self.min_speed
    }

    /// Maximum platform speed `s_up`.
    #[inline]
    pub fn max_speed(&self) -> Speed {
        self.max_speed
    }

    /// Core sleep-transition break-even time `ξ`.
    #[inline]
    pub fn break_even(&self) -> Time {
        self.break_even
    }

    /// Dynamic power `P_d(s) = β·s^λ`.
    pub fn dynamic_power(&self, speed: Speed) -> Watts {
        Watts::new(self.beta * speed.as_hz().powf(self.lambda))
    }

    /// Total power while executing at `speed`: `α + β·s^λ`.
    pub fn power(&self, speed: Speed) -> Watts {
        self.alpha + self.dynamic_power(speed)
    }

    /// Energy to execute `work` at constant `speed` (static + dynamic):
    /// `(α + β·s^λ)·(w/s)`.
    pub fn run_energy_at_speed(&self, work: Cycles, speed: Speed) -> Joules {
        self.power(speed) * (work / speed)
    }

    /// Energy to execute `work` stretched exactly over a window of length
    /// `window`: `β·w^λ·L^{1−λ} + α·L`. This is the form every energy
    /// equation in the paper is written in.
    pub fn run_energy_over_window(&self, work: Cycles, window: Time) -> Joules {
        self.dynamic_run_energy(work, window) + self.alpha * window
    }

    /// Dynamic-only energy over a window: `β·w^λ·L^{1−λ}`.
    pub fn dynamic_run_energy(&self, work: Cycles, window: Time) -> Joules {
        if work.value() == 0.0 {
            return Joules::ZERO;
        }
        Joules::new(
            self.beta * work.value().powf(self.lambda) * window.as_secs().powf(1.0 - self.lambda),
        )
    }

    /// One core sleep/wake round trip costs `α·ξ`.
    pub fn transition_energy(&self) -> Joules {
        self.alpha * self.break_even
    }

    /// The cheaper of sleeping through an idle gap (one round trip, `α·ξ`)
    /// or idling awake through it (`α·g`). Non-positive gaps are free.
    pub fn best_gap_energy(&self, gap: Time) -> Joules {
        if gap.value() <= 0.0 {
            return Joules::ZERO;
        }
        (self.alpha * gap).min(self.transition_energy())
    }

    /// The unconstrained critical speed
    /// `s_m = (α / (β(λ−1)))^{1/λ}` minimizing per-work energy
    /// `(α + β s^λ)·w/s` (Irani et al.). Zero when `α = 0`.
    pub fn critical_speed_unclamped(&self) -> Speed {
        Speed::from_hz(
            (self.alpha.value() / (self.beta * (self.lambda - 1.0))).powf(1.0 / self.lambda),
        )
    }

    /// The task-clamped critical speed of §4.2:
    /// `s_0 = min(max(s_m, s_f), s_up)` where `s_f` is the task's filled
    /// speed. Guarantees `s_f ≤ s_0 ≤ s_up` whenever `s_f ≤ s_up`.
    pub fn critical_speed(&self, filled_speed: Speed) -> Speed {
        self.critical_speed_unclamped()
            .max(filled_speed)
            .min(self.max_speed)
    }

    /// The constrained critical speed of §7 for non-zero core break-even
    /// `ξ`: running at `s_m` is only worthwhile when the resulting idle tail
    /// `|I| − w/min(s_m, s_up)` is at least `ξ`; otherwise the task should
    /// simply fill its window (`s_c = s_f`).
    ///
    /// `interval` is the maximal interval `|I|` of the task set and
    /// `work`/`filled_speed` describe the task.
    pub fn constrained_critical_speed(
        &self,
        work: Cycles,
        filled_speed: Speed,
        interval: Time,
    ) -> Speed {
        let s_m = self.critical_speed_unclamped();
        self.constrained_critical_speed_at(s_m, work, filled_speed, interval)
    }

    /// [`Self::constrained_critical_speed`] for a caller that computed
    /// `s_m` ([`Self::critical_speed_unclamped`]) once for many tasks.
    pub fn constrained_critical_speed_at(
        &self,
        s_m: Speed,
        work: Cycles,
        filled_speed: Speed,
        interval: Time,
    ) -> Speed {
        let run = work / s_m.min(self.max_speed);
        if interval - run >= self.break_even {
            s_m.max(filled_speed).min(self.max_speed)
        } else {
            filled_speed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn paper_unit_conversion() {
        let core = CorePower::cortex_a57();
        // P_d(1000 MHz) = 2.53e-7 mW/MHz³ · 1000³ MHz³ = 253 mW.
        let pd = core.dynamic_power(Speed::from_mhz(1000.0));
        assert!(close(pd.value(), 0.253, 1e-9), "{pd}");
        assert!(close(core.alpha().value(), 0.310, 1e-12));
        assert_eq!(core.lambda(), 3.0);
        assert!(close(core.min_speed().as_mhz(), 700.0, 1e-12));
        assert!(close(core.max_speed().as_mhz(), 1900.0, 1e-12));
    }

    #[test]
    fn critical_speed_matches_closed_form() {
        let core = CorePower::cortex_a57();
        // s_m³ = α / (2β)  ⇒  s_m = (0.310 / (2 · β_SI))^(1/3).
        let beta_si: f64 = 2.53e-7 * 1e-3 / 1e18;
        let expected = (0.310 / (2.0 * beta_si)).powf(1.0 / 3.0);
        assert!(close(
            core.critical_speed_unclamped().as_hz(),
            expected,
            1e-12
        ));
        // ≈ 849 MHz, inside the A57 range.
        assert!((core.critical_speed_unclamped().as_mhz() - 849.0).abs() < 1.0);
    }

    #[test]
    fn critical_speed_minimizes_per_work_energy() {
        let core = CorePower::simple(4.0, 1.0, 3.0);
        let s_m = core.critical_speed_unclamped();
        let w = Cycles::new(10.0);
        let e_at = |s: f64| core.run_energy_at_speed(w, Speed::from_hz(s)).value();
        let e_m = e_at(s_m.as_hz());
        for ds in [0.9, 0.95, 1.05, 1.1] {
            assert!(
                e_at(s_m.as_hz() * ds) > e_m,
                "not minimal at s_m, factor {ds}"
            );
        }
    }

    #[test]
    fn critical_speed_clamping() {
        let core = CorePower::cortex_a57();
        let s_m = core.critical_speed_unclamped();
        // Low-density task: clamp up to s_m.
        assert_eq!(core.critical_speed(Speed::from_mhz(100.0)), s_m);
        // High-density task: clamp to filled speed.
        let sf = Speed::from_mhz(1500.0);
        assert_eq!(core.critical_speed(sf), sf);
        // Density above s_up: clamp to s_up.
        assert_eq!(
            core.critical_speed(Speed::from_mhz(2500.0)),
            core.max_speed()
        );
    }

    #[test]
    fn alpha_zero_has_zero_critical_speed() {
        let core = CorePower::simple(0.0, 1.0, 3.0);
        assert!(core.is_alpha_zero());
        assert_eq!(core.critical_speed_unclamped(), Speed::ZERO);
        // s_0 degenerates to the filled speed.
        let sf = Speed::from_hz(5.0);
        assert_eq!(core.critical_speed(sf), sf);
    }

    #[test]
    fn run_energy_forms_agree() {
        let core = CorePower::simple(2.0, 0.5, 3.0);
        let w = Cycles::new(6.0);
        let s = Speed::from_hz(3.0);
        let window = w / s;
        let a = core.run_energy_at_speed(w, s);
        let b = core.run_energy_over_window(w, window);
        assert!(close(a.value(), b.value(), 1e-12));
        // Closed form: β w³ L⁻² + α L with L = 2: 0.5·216/4 + 2·2 = 31.
        assert!(close(a.value(), 31.0, 1e-12));
    }

    #[test]
    fn zero_work_costs_only_static() {
        let core = CorePower::simple(2.0, 0.5, 3.0);
        let e = core.run_energy_over_window(Cycles::new(0.0), Time::from_secs(3.0));
        assert!(close(e.value(), 6.0, 1e-12));
        assert_eq!(
            core.dynamic_run_energy(Cycles::new(0.0), Time::from_secs(3.0)),
            Joules::ZERO
        );
    }

    #[test]
    fn transition_energy_is_alpha_xi() {
        let core = CorePower::simple(2.0, 1.0, 3.0).with_break_even(Time::from_secs(0.25));
        assert!(close(core.transition_energy().value(), 0.5, 1e-12));
        assert_eq!(core.break_even(), Time::from_secs(0.25));
    }

    #[test]
    fn constrained_critical_speed_cases() {
        // α = 4, β = 1, λ = 3 ⇒ s_m = 2^(1/3) ≈ 1.26.
        let xi = Time::from_secs(1.0);
        let core = CorePower::simple(4.0, 1.0, 3.0).with_break_even(xi);
        let s_m = core.critical_speed_unclamped();
        let w = Cycles::new(2.0);
        let interval = Time::from_secs(10.0);
        let s_f = w / interval;
        // Tail at s_m: 10 − 2/1.26 ≈ 8.4 ≥ ξ ⇒ use critical speed.
        assert_eq!(core.constrained_critical_speed(w, s_f, interval), s_m);
        // Short interval: tail < ξ ⇒ fill the window.
        let short = Time::from_secs(2.0);
        let s_f_short = w / short;
        assert_eq!(
            core.constrained_critical_speed(w, s_f_short, short),
            s_f_short
        );
    }

    #[test]
    fn with_max_speed_adjusts_s_up() {
        let core = CorePower::simple(4.0, 1.0, 3.0).with_max_speed(Speed::from_hz(1.0));
        // s_m ≈ 1.26 > s_up ⇒ clamp to s_up.
        assert_eq!(
            core.critical_speed(Speed::from_hz(0.1)),
            Speed::from_hz(1.0)
        );
    }

    #[test]
    #[should_panic(expected = "λ must exceed 1")]
    fn rejects_lambda_at_most_one() {
        let _ = CorePower::simple(1.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "β must be positive")]
    fn rejects_nonpositive_beta() {
        let _ = CorePower::simple(1.0, 0.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_alpha() {
        let _ = CorePower::simple(-1.0, 1.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "break-even")]
    fn rejects_negative_break_even() {
        let _ = CorePower::simple(1.0, 1.0, 3.0).with_break_even(Time::from_secs(-1.0));
    }
}
