//! Circuit fixtures: PTL LC-ladders and the Fig. 13 splitter-unit hop.
//!
//! The paper validates its analytic SFQ H-Tree model by simulating a
//! splitter unit driving PTLs of various lengths in JoSIM and comparing
//! latency and energy (Fig. 13, deviations within +-6% / +-11%). This module
//! builds the same circuit class for the `josim-lite` engine: a source
//! junction stage, a matched driver resistance, a discretized lossless LC
//! ladder, and a matched termination at the receiver.

use crate::circuit::{Circuit, NodeId};
use crate::engine::{Engine, Transient, TransientSpec};
use crate::waveform::Waveform;
use smart_sfq::ptl::PtlGeometry;
use smart_units::Length;
use smart_units::Result;

/// Number of LC sections per millimeter of line. 40 sections/mm keeps the
/// discretization (Bragg) cutoff far above the SFQ pulse bandwidth while
/// keeping matrices small.
const SECTIONS_PER_MM: f64 = 40.0;
/// Minimum number of sections for very short lines.
const MIN_SECTIONS: usize = 8;

/// Builds the matched-source, matched-load LC ladder every PTL simulation
/// uses (the Fig. 13 validation fixture and the adaptive characterization
/// suite share it, so both simulate exactly the same netlist): a Gaussian
/// SFQ-shaped current pulse into a source resistor `Z`, `sections` LC
/// sections, and a matched termination. Returns the circuit with its
/// input/output probe nodes and the section count.
///
/// # Panics
///
/// Panics if `length` is not positive.
pub(crate) fn build_ptl_ladder(
    geometry: &PtlGeometry,
    length: Length,
) -> (Circuit, NodeId, NodeId, usize) {
    assert!(length.as_si() > 0.0, "PTL length must be positive");
    let sections = ((length.as_mm() * SECTIONS_PER_MM).ceil() as usize).max(MIN_SECTIONS);
    let l_total = geometry.inductance_per_meter() * length.as_m();
    let c_total = geometry.capacitance_per_meter() * length.as_m();
    let l_sec = l_total / sections as f64;
    let c_sec = c_total / sections as f64;
    let z = geometry.impedance();

    let mut ckt = Circuit::new();
    let input = ckt.node();

    // SFQ pulse source: the source resistor Z and the line impedance Z
    // form a 2:1 divider, so a current pulse of area 2*Phi0/Z launches a
    // voltage pulse of flux area ~Phi0 onto the line.
    let phi0 = crate::engine::PHI0;
    let sigma = 1.0e-12; // ~2 ps FWHM SFQ pulse
    let area = 2.0 * phi0 / z; // ampere-seconds
    let amplitude = area / (sigma * (2.0 * std::f64::consts::PI).sqrt());
    ckt.current_source(
        Circuit::GROUND,
        input,
        Waveform::gaussian(amplitude, 6.0 * sigma, sigma),
    );
    // Source matching resistor (the PTL driver's output resistance).
    ckt.resistor(input, Circuit::GROUND, z);

    // LC ladder.
    let mut prev = input;
    let mut last = input;
    for _ in 0..sections {
        let next = ckt.node();
        ckt.inductor(prev, next, l_sec);
        ckt.capacitor(next, Circuit::GROUND, c_sec);
        prev = next;
        last = next;
    }
    // Matched termination at the receiver.
    ckt.resistor(last, Circuit::GROUND, z);

    (ckt, input, last, sections)
}

/// A built PTL ladder fixture ready to simulate.
#[derive(Debug)]
pub struct PtlFixture {
    engine: Engine,
    input: NodeId,
    output: NodeId,
    sections: usize,
    length: Length,
    geometry: PtlGeometry,
}

impl PtlFixture {
    /// Builds a matched-source, matched-load LC ladder for a PTL of the
    /// given geometry and length, excited by one SFQ-shaped current pulse.
    ///
    /// # Panics
    ///
    /// Panics if `length` is not positive.
    #[must_use]
    pub fn new(geometry: PtlGeometry, length: Length) -> Self {
        let (ckt, input, output, sections) = build_ptl_ladder(&geometry, length);
        Self {
            engine: Engine::new(ckt),
            input,
            output,
            sections,
            length,
            geometry,
        }
    }

    /// Number of LC sections in the discretization.
    #[must_use]
    pub fn sections(&self) -> usize {
        self.sections
    }

    /// The line length being simulated.
    #[must_use]
    pub fn length(&self) -> Length {
        self.length
    }

    /// The line geometry.
    #[must_use]
    pub fn geometry(&self) -> &PtlGeometry {
        &self.geometry
    }

    /// Runs the transient and extracts the measurement.
    ///
    /// # Errors
    ///
    /// Propagates engine failures (singular matrix / Newton divergence)
    /// as [`smart_units::SmartError::Simulation`].
    pub fn run(&self) -> Result<PtlMeasurement> {
        // Simulate long enough for the pulse to arrive plus margin, under
        // the fixed step policy. The margin is rounded up to a whole number
        // of steps, so the grid `t = step·k` ends on `stop` with a full
        // step and the clamp of a short final step never applies.
        let analytic_delay = self.geometry.delay_per_meter() * self.length.as_m();
        let step = 0.02e-12;
        let stop = step * ((20.0e-12 + 3.0 * analytic_delay) / step).ceil();
        let out = self
            .engine
            .run(TransientSpec::new(stop, step), &[self.input, self.output])?;
        Ok(PtlMeasurement::extract(&out))
    }
}

/// Latency and energy extracted from a PTL transient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtlMeasurement {
    /// Time between half-flux crossings at input and output (s).
    pub delay: f64,
    /// Flux that arrived at the output, in units of Phi0 (should be ~1).
    pub output_flux_quanta: f64,
    /// Total resistive dissipation of the run (J).
    pub dissipated_energy: f64,
}

impl PtlMeasurement {
    fn extract(out: &Transient) -> Self {
        let phi0 = crate::engine::PHI0;
        let half = 0.5 * phi0;
        let t_in = out.flux_crossing(0, half).unwrap_or(0.0);
        let t_out = out.flux_crossing(1, half).unwrap_or(t_in);
        let flux_out = *out.flux(1).last().unwrap_or(&0.0);
        Self {
            delay: (t_out - t_in).max(0.0),
            output_flux_quanta: flux_out / phi0,
            dissipated_energy: out.dissipated_energy(),
        }
    }
}

/// One point of the Fig. 13 validation sweep: the analytic model's
/// prediction next to the circuit-level measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationPoint {
    /// PTL length.
    pub length: Length,
    /// Analytic one-way delay (s), Eq. 4.
    pub analytic_delay: f64,
    /// Simulated one-way delay (s).
    pub simulated_delay: f64,
    /// Analytic per-pulse line + termination energy (J).
    pub analytic_energy: f64,
    /// Simulated dissipated energy (J).
    pub simulated_energy: f64,
}

impl ValidationPoint {
    /// Relative delay deviation (simulated vs analytic).
    #[must_use]
    pub fn delay_error(&self) -> f64 {
        (self.simulated_delay - self.analytic_delay) / self.analytic_delay
    }

    /// Relative energy deviation (simulated vs analytic).
    #[must_use]
    pub fn energy_error(&self) -> f64 {
        (self.simulated_energy - self.analytic_energy) / self.analytic_energy
    }
}

/// Runs the Fig. 13 validation for the given lengths (mm).
///
/// The analytic energy reference is the pulse energy launched into a matched
/// line: `Phi0^2 / (sigma * sqrt(2 pi) * Z)` delivered across source and
/// termination resistors.
///
/// # Errors
///
/// Propagates engine failures as
/// [`smart_units::SmartError::Simulation`].
pub fn validate_ptl_model(lengths_mm: &[f64]) -> Result<Vec<ValidationPoint>> {
    let geometry = PtlGeometry::hypres_microstrip();
    let phi0 = crate::engine::PHI0;
    let sigma = 1.0e-12;
    let z = geometry.impedance();
    let mut out = Vec::with_capacity(lengths_mm.len());
    for &mm in lengths_mm {
        let length = Length::from_mm(mm);
        let fixture = PtlFixture::new(geometry, length);
        let m = fixture.run()?;
        let analytic_delay = geometry.delay_per_meter() * length.as_m();
        // A Gaussian current pulse i(t) with area 2*Phi0/Z into a node
        // loaded by Z/2 (source || line, then line into termination)
        // dissipates E = integral i^2 * (Z/2) dt
        //             = (2*Phi0/Z)^2 / (2 sigma sqrt(pi)) * Z/2.
        let analytic_energy =
            (2.0 * phi0 / z).powi(2) / (2.0 * sigma * std::f64::consts::PI.sqrt()) * (z / 2.0);
        out.push(ValidationPoint {
            length,
            analytic_delay,
            simulated_delay: m.delay,
            analytic_energy,
            simulated_energy: m.dissipated_energy,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_delay_tracks_analytic_within_6_percent() {
        // Paper Fig. 13a: the model matches JoSIM within +-6%.
        let pts = validate_ptl_model(&[0.3, 0.6]).expect("simulates");
        for p in pts {
            let err = p.delay_error().abs();
            assert!(
                err < 0.06,
                "delay error {:.1}% at {} mm (analytic {:.2} ps, simulated {:.2} ps)",
                err * 100.0,
                p.length.as_mm(),
                p.analytic_delay * 1e12,
                p.simulated_delay * 1e12
            );
        }
    }

    #[test]
    fn ladder_energy_tracks_analytic_within_11_percent() {
        // Paper Fig. 13b: energies match within +-11%.
        let pts = validate_ptl_model(&[0.3]).expect("simulates");
        for p in pts {
            let err = p.energy_error().abs();
            assert!(
                err < 0.11,
                "energy error {:.1}% at {} mm",
                err * 100.0,
                p.length.as_mm()
            );
        }
    }

    #[test]
    fn one_flux_quantum_arrives() {
        let fixture = PtlFixture::new(PtlGeometry::hypres_microstrip(), Length::from_mm(0.4));
        let m = fixture.run().expect("simulates");
        assert!(
            (m.output_flux_quanta - 1.0).abs() < 0.1,
            "got {} Phi0",
            m.output_flux_quanta
        );
    }

    #[test]
    fn longer_lines_have_longer_delays() {
        let a = PtlFixture::new(PtlGeometry::hypres_microstrip(), Length::from_mm(0.2))
            .run()
            .unwrap();
        let b = PtlFixture::new(PtlGeometry::hypres_microstrip(), Length::from_mm(0.6))
            .run()
            .unwrap();
        assert!(b.delay > a.delay * 2.0);
    }

    #[test]
    fn section_count_scales_with_length() {
        let g = PtlGeometry::hypres_microstrip();
        let short = PtlFixture::new(g, Length::from_mm(0.05));
        let long = PtlFixture::new(g, Length::from_mm(1.0));
        assert!(long.sections() > short.sections());
        assert!(short.sections() >= MIN_SECTIONS);
    }
}
