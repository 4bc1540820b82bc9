use std::fmt;

/// Index into a platform's frequency table (0 = lowest frequency).
pub type FreqLevel = usize;

/// A discrete DVFS frequency/voltage operating-point table for one clock
/// domain (GPU or CPU cluster).
///
/// Voltage is interpolated linearly between the domain's minimum and maximum
/// operating voltage — the standard shape of published Jetson V/f tables.
///
/// # Example
///
/// ```
/// use powerlens_platform::FrequencyTable;
///
/// let t = FrequencyTable::jetson_agx_gpu();
/// assert_eq!(t.num_levels(), 14);
/// assert!(t.freq_hz(0) < t.freq_hz(13));
/// assert!(t.voltage(0) < t.voltage(13));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyTable {
    freqs_hz: Vec<f64>,
    v_min: f64,
    v_max: f64,
    /// Exponent of the normalized-frequency term in the voltage
    /// interpolation. Published Jetson V/f tables are convex: voltage ramps
    /// steeply near the top of the frequency range (`v_exponent > 1`).
    v_exponent: f64,
    /// [`FrequencyTable::voltage`] at every level, derived from the fields
    /// above whenever they are set: the power model reads a voltage for
    /// every layer it prices, and the interpolation costs a `powf`.
    volts: Vec<f64>,
}

impl FrequencyTable {
    /// Builds a table from explicit frequencies (ascending, in Hz) and a
    /// voltage range.
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz` is empty, not strictly ascending, or the voltage
    /// range is inverted.
    pub fn new(freqs_hz: Vec<f64>, v_min: f64, v_max: f64) -> Self {
        assert!(!freqs_hz.is_empty(), "frequency table must be non-empty");
        assert!(
            freqs_hz.windows(2).all(|w| w[0] < w[1]),
            "frequencies must be strictly ascending"
        );
        assert!(v_min <= v_max, "voltage range inverted");
        FrequencyTable {
            freqs_hz,
            v_min,
            v_max,
            v_exponent: 1.0,
            volts: Vec::new(),
        }
        .with_voltage_exponent(1.0)
    }

    /// Sets the convexity of the voltage curve (see the struct docs).
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is not positive.
    pub fn with_voltage_exponent(mut self, exponent: f64) -> Self {
        assert!(exponent > 0.0, "voltage exponent must be positive");
        self.v_exponent = exponent;
        let (lo, hi) = (self.freqs_hz[0], self.freqs_hz[self.freqs_hz.len() - 1]);
        self.volts = if self.freqs_hz.len() == 1 {
            vec![self.v_max]
        } else {
            self.freqs_hz
                .iter()
                .map(|f| {
                    let norm = (f - lo) / (hi - lo);
                    self.v_min + (self.v_max - self.v_min) * norm.powf(exponent)
                })
                .collect()
        };
        self
    }

    /// The NVIDIA Jetson AGX Xavier GPU table: 14 levels, 114.75 MHz to
    /// 1377 MHz (the paper's "114 MHz to 1370 MHz across 14 levels").
    pub fn jetson_agx_gpu() -> Self {
        let mhz = [
            114.75, 216.75, 318.75, 420.75, 522.75, 624.75, 675.75, 828.75, 905.25, 1032.75,
            1198.5, 1236.75, 1338.75, 1377.0,
        ];
        FrequencyTable::new(mhz.iter().map(|m| m * 1e6).collect(), 0.60, 1.13)
            .with_voltage_exponent(2.5)
    }

    /// The NVIDIA Jetson TX2 GPU table: 13 levels, 114.75 MHz to 1300.5 MHz
    /// (the paper's "114 MHz to 1300 MHz across 13 levels").
    pub fn jetson_tx2_gpu() -> Self {
        let mhz = [
            114.75, 216.75, 318.75, 420.75, 522.75, 624.75, 726.75, 854.25, 930.75, 1032.75,
            1122.0, 1236.75, 1300.5,
        ];
        FrequencyTable::new(mhz.iter().map(|m| m * 1e6).collect(), 0.65, 1.05)
            .with_voltage_exponent(1.8)
    }

    /// Jetson AGX Xavier Carmel CPU cluster (coarse 8-level table).
    pub fn jetson_agx_cpu() -> Self {
        let mhz = [422.4, 729.6, 1036.8, 1190.4, 1420.8, 1728.0, 2035.2, 2265.6];
        FrequencyTable::new(mhz.iter().map(|m| m * 1e6).collect(), 0.55, 1.05)
    }

    /// Jetson TX2 Denver/A57 CPU cluster (coarse 7-level table).
    pub fn jetson_tx2_cpu() -> Self {
        let mhz = [345.6, 652.8, 960.0, 1267.2, 1574.4, 1881.6, 2035.2];
        FrequencyTable::new(mhz.iter().map(|m| m * 1e6).collect(), 0.60, 1.00)
    }

    /// Number of discrete levels.
    pub fn num_levels(&self) -> usize {
        self.freqs_hz.len()
    }

    /// Frequency in Hz at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn freq_hz(&self, level: FreqLevel) -> f64 {
        self.freqs_hz[level]
    }

    /// Frequency in MHz at `level`.
    pub fn freq_mhz(&self, level: FreqLevel) -> f64 {
        self.freqs_hz[level] / 1e6
    }

    /// Operating voltage at `level`: `v_min + (v_max - v_min) · norm^e`,
    /// with `norm` the level's frequency normalized over the table's range
    /// and `e` the voltage exponent (1 = linear interpolation).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn voltage(&self, level: FreqLevel) -> f64 {
        self.volts[level]
    }

    /// Highest level index.
    pub fn max_level(&self) -> FreqLevel {
        self.freqs_hz.len() - 1
    }

    /// Clamps an arbitrary index into the valid level range.
    pub fn clamp_level(&self, level: isize) -> FreqLevel {
        level.clamp(0, self.max_level() as isize) as FreqLevel
    }

    /// The level whose frequency is nearest to `hz`.
    pub fn nearest_level(&self, hz: f64) -> FreqLevel {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &f) in self.freqs_hz.iter().enumerate() {
            let d = (f - hz).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

impl fmt::Display for FrequencyTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} levels: {:.0}-{:.0} MHz",
            self.num_levels(),
            self.freq_mhz(0),
            self.freq_mhz(self.max_level())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_level_counts() {
        assert_eq!(FrequencyTable::jetson_agx_gpu().num_levels(), 14);
        assert_eq!(FrequencyTable::jetson_tx2_gpu().num_levels(), 13);
    }

    #[test]
    fn paper_frequency_ranges() {
        let agx = FrequencyTable::jetson_agx_gpu();
        assert!((agx.freq_mhz(0) - 114.75).abs() < 0.01);
        assert!((agx.freq_mhz(13) - 1377.0).abs() < 0.01);
        let tx2 = FrequencyTable::jetson_tx2_gpu();
        assert!((tx2.freq_mhz(12) - 1300.5).abs() < 0.01);
    }

    #[test]
    fn voltage_monotonic() {
        let t = FrequencyTable::jetson_agx_gpu();
        for l in 1..t.num_levels() {
            assert!(t.voltage(l) > t.voltage(l - 1));
        }
        assert!((t.voltage(0) - 0.60).abs() < 1e-9);
        assert!((t.voltage(t.max_level()) - 1.13).abs() < 1e-9);
    }

    #[test]
    fn clamp_and_nearest() {
        let t = FrequencyTable::jetson_tx2_gpu();
        assert_eq!(t.clamp_level(-3), 0);
        assert_eq!(t.clamp_level(99), t.max_level());
        assert_eq!(t.nearest_level(115e6), 0);
        assert_eq!(t.nearest_level(1.3e9), t.max_level());
        assert_eq!(t.nearest_level(520e6), 4);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted() {
        FrequencyTable::new(vec![2.0, 1.0], 0.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty() {
        FrequencyTable::new(vec![], 0.5, 1.0);
    }

    #[test]
    fn single_level_voltage() {
        let t = FrequencyTable::new(vec![1e9], 0.5, 1.0);
        assert_eq!(t.voltage(0), 1.0);
    }

    #[test]
    fn display_shows_range() {
        let s = FrequencyTable::jetson_agx_gpu().to_string();
        assert!(s.contains("14 levels"));
    }
}
