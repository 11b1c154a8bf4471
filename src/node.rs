//! One sensor node assembled from the facade, end to end: a sampling policy
//! and encoder on the sensor, the sealed [`transport::Link`](crate::transport::Link)
//! on the air, and decode + interpolation on the server.

#[cfg(test)]
mod tests {
    use crate::core::{AgeEncoder, Batch, BatchConfig, DecodeError, Encoder, StandardEncoder};
    use crate::crypto::{ChaCha20, ChaCha20Poly1305, Cipher};
    use crate::fixed::Format;
    use crate::reconstruct::interpolate;
    use crate::sampling::{LinearPolicy, Policy, UniformPolicy};
    use crate::transport::{FaultPlan, Link, ReceiveError, Receiver, RetryPolicy, Sensor};

    fn cfg() -> BatchConfig {
        BatchConfig::new(50, 2, Format::new(16, 12).unwrap()).unwrap()
    }

    fn signal(seed: usize) -> Vec<f64> {
        (0..100)
            .map(|i| (((i + seed * 13) as f64) * 0.21).sin() * 3.0)
            .collect()
    }

    /// Sensor side before sealing: sample one sequence and encode the batch.
    fn encode(
        policy: &dyn Policy,
        encoder: &dyn Encoder,
        cfg: &BatchConfig,
        values: &[f64],
    ) -> Vec<u8> {
        let d = cfg.features();
        let batch = Batch::gather(policy.sample(values, d), values, d).unwrap();
        encoder.encode(&batch, cfg).unwrap()
    }

    /// Server side after opening: decode one payload and interpolate it
    /// back to a full sequence.
    fn reconstruct(
        encoder: &dyn Encoder,
        cfg: &BatchConfig,
        payload: &[u8],
    ) -> Result<Vec<f64>, DecodeError> {
        let batch = encoder.decode(payload, cfg)?;
        Ok(interpolate(
            batch.indices(),
            batch.values(),
            cfg.max_len(),
            cfg.features(),
        ))
    }

    fn link(sensor: Box<dyn Cipher>, server: Box<dyn Cipher>, plan: FaultPlan) -> Link {
        Link::new(sensor, server, plan, RetryPolicy::none())
    }

    #[test]
    fn end_to_end_over_reliable_link() {
        let c = cfg();
        let policy = LinearPolicy::new(0.2);
        let encoder = AgeEncoder::new(120);
        let mut link = link(
            Box::new(ChaCha20::new([5; 32])),
            Box::new(ChaCha20::new([5; 32])),
            FaultPlan::NONE,
        );
        for s in 0..10 {
            let truth = signal(s);
            let delivery = link.send(&encode(&policy, &encoder, &c, &truth));
            assert_eq!(delivery.frame_len, 120 + 12);
            assert!(delivery.delivered, "reliable link");
            assert_eq!(delivery.payloads.len(), 1);
            let recon = reconstruct(&encoder, &c, &delivery.payloads[0].1).unwrap();
            assert_eq!(recon.len(), truth.len());
            let mae: f64 = recon
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / truth.len() as f64;
            assert!(mae < 2.0, "mae={mae}");
        }
        assert_eq!(link.stats().frames_sent, 10);
        assert_eq!(link.stats().frames_delivered, 10);
    }

    #[test]
    fn wrong_key_is_rejected_by_aead() {
        let c = cfg();
        let plaintext = encode(&UniformPolicy::new(0.5), &StandardEncoder, &c, &signal(0));
        let mut sensor = Sensor::new(Box::new(ChaCha20Poly1305::new([1; 32])));
        // Mismatched key.
        let mut server = Receiver::new(Box::new(ChaCha20Poly1305::new([2; 32])));
        let (_, frame) = sensor.seal(&plaintext).unwrap();
        assert!(matches!(
            server.receive(&frame),
            Err(ReceiveError::Cipher(_))
        ));

        let mut link = link(
            Box::new(ChaCha20Poly1305::new([1; 32])),
            Box::new(ChaCha20Poly1305::new([2; 32])),
            FaultPlan::NONE,
        );
        assert!(!link.send(&plaintext).delivered);
        assert_eq!(link.stats().auth_failed, 1);
    }

    #[test]
    fn lossy_link_statistics() {
        let mut link = link(
            Box::new(ChaCha20::new([0; 32])),
            Box::new(ChaCha20::new([0; 32])),
            FaultPlan::drops(0.5, 42),
        );
        let mut got = 0;
        for _ in 0..200 {
            if link.send(&[0u8; 4]).delivered {
                got += 1;
            }
        }
        assert_eq!(link.stats().frames_delivered, got);
        assert_eq!(
            link.stats().frames_delivered + link.stats().messages_lost,
            200
        );
        assert!((60..140).contains(&got), "delivered {got}/200");
    }

    #[test]
    fn mismatched_encoder_configuration_errors_cleanly() {
        let c = cfg();
        let mut link = link(
            Box::new(ChaCha20::new([3; 32])),
            Box::new(ChaCha20::new([3; 32])),
            FaultPlan::NONE,
        );
        let plaintext = encode(&UniformPolicy::new(0.9), &StandardEncoder, &c, &signal(1));
        let delivery = link.send(&plaintext);
        assert!(delivery.delivered);
        // Server expects AGE messages but the sensor sends standard ones.
        let server = AgeEncoder::new(400);
        for (_, payload) in &delivery.payloads {
            // Either a decode error or (unlucky) garbage — never a panic.
            let _ = reconstruct(&server, &c, payload);
        }
    }

    #[test]
    fn sensor_nonces_advance() {
        let c = cfg();
        let policy = UniformPolicy::new(0.5);
        let encoder = AgeEncoder::new(120);
        let mut sensor = Sensor::new(Box::new(ChaCha20::new([9; 32])));
        let truth = signal(2);
        let (sa, a) = sensor.seal(&encode(&policy, &encoder, &c, &truth)).unwrap();
        let (sb, b) = sensor.seal(&encode(&policy, &encoder, &c, &truth)).unwrap();
        assert_eq!(sb, sa + 1);
        assert_ne!(a, b, "same data must still produce distinct ciphertexts");
        assert_eq!(a.len(), b.len());
    }
}
