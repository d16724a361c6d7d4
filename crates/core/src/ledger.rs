//! The §III installation procedures as data — experiment E8's source.
//!
//! Step lists are transcribed from the paper: conventional installation
//! steps (a)–(d) (§III-A item 1), security configuration steps (e)–(h)
//! (item 2), per-user work (item 3), plus the GridFTP-Lite and GCMU
//! procedures of §III-B and §IV-D/E. Estimated times are coarse
//! order-of-magnitude figures for the *manual* steps ("obtaining an X.509
//! certificate from a well-known certificate authority alone is a complex
//! and time-consuming process ... out-of-band vetting", §IV).

/// One setup step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// What the step is.
    pub name: String,
    /// Does a human have to act (vs. scripted)?
    pub manual: bool,
    /// Rough wall-clock estimate in minutes.
    pub est_minutes: f64,
    /// Is this a known failure source (the paper calls out gridmap
    /// maintenance and certificate handling)?
    pub error_prone: bool,
}

impl Step {
    fn new(name: &str, manual: bool, est_minutes: f64, error_prone: bool) -> Self {
        Step { name: name.into(), manual, est_minutes, error_prone }
    }
}

/// A full procedure for one deployment method.
#[derive(Debug, Clone, PartialEq)]
pub struct Procedure {
    /// Method name.
    pub method: String,
    /// One-time admin steps.
    pub admin_steps: Vec<Step>,
    /// Admin steps required *per user* (the gridmap tax).
    pub per_user_admin_steps: Vec<Step>,
    /// Steps each user performs before their first transfer.
    pub user_steps: Vec<Step>,
    /// Can transfers be handed off to agents like Globus Online
    /// (requires delegation — SSH cannot, §III-B)?
    pub supports_delegation: bool,
    /// Is the data channel authenticated/protectable?
    pub data_channel_security: bool,
    /// Does striped operation have secure internal channels?
    pub secure_striping: bool,
}

/// Deployment methods compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupMethod {
    /// §III-A: conventional GSI installation.
    ConventionalGsi,
    /// §III-B-1: SSH-based GridFTP-Lite.
    GridFtpLite,
    /// §IV: Globus Connect Multi User.
    Gcmu,
}

/// The procedure for a method.
pub fn procedure(method: SetupMethod) -> Procedure {
    match method {
        SetupMethod::ConventionalGsi => Procedure {
            method: "Conventional GSI".into(),
            admin_steps: vec![
                // §III-A item 1, steps (a)-(d).
                Step::new("(a) download Globus", false, 2.0, false),
                Step::new("(b) untar the Globus tar file", false, 1.0, false),
                Step::new("(c) run configure", false, 5.0, false),
                Step::new("(d) run make and make install", false, 15.0, false),
                // item 2, steps (e)-(h).
                Step::new("(e) obtain X.509 host certificate from well-known CA", true, 2880.0, true),
                Step::new("(f) install the X.509 host certificate", true, 10.0, true),
                Step::new("(g) configure trusted certificates directory", true, 15.0, true),
                Step::new("(h) set up gridmap authorization", true, 10.0, true),
            ],
            per_user_admin_steps: vec![Step::new(
                "add user's DN to the gridmap file",
                true,
                5.0,
                true, // "a frequent source of errors and complaints"
            )],
            user_steps: vec![
                Step::new("obtain X.509 user certificate from well-known CA", true, 2880.0, true),
                Step::new("install user certificate (openssl format juggling)", true, 20.0, true),
                Step::new("configure trusted certificates directory", true, 15.0, true),
                Step::new("send DN to server admin for mapping", true, 5.0, true),
            ],
            supports_delegation: true,
            data_channel_security: true,
            secure_striping: true,
        },
        SetupMethod::GridFtpLite => Procedure {
            method: "GridFTP-Lite (SSH)".into(),
            admin_steps: vec![
                Step::new("(a) download Globus", false, 2.0, false),
                Step::new("(b) untar", false, 1.0, false),
                Step::new("(c) run configure", false, 5.0, false),
                Step::new("(d) run make and make install", false, 15.0, false),
            ],
            per_user_admin_steps: vec![], // SSH accounts already exist
            user_steps: vec![Step::new("ssh to start the server on demand", false, 1.0, false)],
            supports_delegation: false, // "SSH does not support delegation"
            data_channel_security: false, // "the data channel has no security"
            secure_striping: false, // "no security ... between control node and data mover"
        },
        SetupMethod::Gcmu => Procedure {
            method: "GCMU".into(),
            admin_steps: vec![
                // §IV-D: exactly four commands.
                Step::new("wget globusconnect-multiuser-latest.tgz", false, 1.0, false),
                Step::new("tar -xvzf globusconnect-multiuser-latest.tgz", false, 0.5, false),
                Step::new("cd gcmu*", false, 0.1, false),
                Step::new("sudo ./install", false, 2.0, false),
            ],
            per_user_admin_steps: vec![], // no gridmap, no per-user work
            user_steps: vec![
                // §IV-E: install client, myproxy-logon with site password.
                Step::new("install GCMU client tools", false, 3.0, false),
                Step::new("myproxy-logon -b -T -s <server> (site password)", false, 1.0, false),
            ],
            supports_delegation: true,
            data_channel_security: true,
            secure_striping: true,
        },
    }
}

impl Procedure {
    /// Count of manual steps (admin one-time).
    pub fn manual_admin_steps(&self) -> usize {
        self.admin_steps.iter().filter(|s| s.manual).count()
    }

    /// Total one-time admin steps.
    pub fn total_admin_steps(&self) -> usize {
        self.admin_steps.len()
    }

    /// Estimated one-time admin minutes.
    pub fn admin_minutes(&self) -> f64 {
        self.admin_steps.iter().map(|s| s.est_minutes).sum()
    }

    /// Estimated minutes until a new user can transfer (user steps plus
    /// per-user admin steps).
    pub fn time_to_first_transfer_minutes(&self) -> f64 {
        self.user_steps.iter().map(|s| s.est_minutes).sum::<f64>()
            + self.per_user_admin_steps.iter().map(|s| s.est_minutes).sum::<f64>()
    }

    /// Count of error-prone steps across the whole procedure.
    pub fn error_opportunities(&self) -> usize {
        self.admin_steps
            .iter()
            .chain(&self.per_user_admin_steps)
            .chain(&self.user_steps)
            .filter(|s| s.error_prone)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcmu_is_four_commands_and_zero_per_user_admin() {
        let gcmu = procedure(SetupMethod::Gcmu);
        assert_eq!(gcmu.total_admin_steps(), 4, "§IV-D: four commands");
        assert_eq!(gcmu.manual_admin_steps(), 0);
        assert!(gcmu.per_user_admin_steps.is_empty());
        assert_eq!(gcmu.error_opportunities(), 0);
    }

    #[test]
    fn conventional_is_heavier_on_every_axis() {
        let conv = procedure(SetupMethod::ConventionalGsi);
        let gcmu = procedure(SetupMethod::Gcmu);
        assert!(conv.total_admin_steps() > gcmu.total_admin_steps());
        assert!(conv.manual_admin_steps() >= 4);
        assert!(conv.admin_minutes() > 10.0 * gcmu.admin_minutes());
        assert!(
            conv.time_to_first_transfer_minutes()
                > 100.0 * gcmu.time_to_first_transfer_minutes()
        );
        assert!(conv.error_opportunities() >= 8);
    }

    #[test]
    fn gridftp_lite_tradeoffs_match_the_paper() {
        let lite = procedure(SetupMethod::GridFtpLite);
        // Easy to set up...
        assert_eq!(lite.manual_admin_steps(), 0);
        assert!(lite.per_user_admin_steps.is_empty());
        // ...but §III-B's three major limitations hold:
        assert!(!lite.data_channel_security);
        assert!(!lite.supports_delegation);
        assert!(!lite.secure_striping);
        // GCMU keeps all three capabilities.
        let gcmu = procedure(SetupMethod::Gcmu);
        assert!(gcmu.data_channel_security && gcmu.supports_delegation && gcmu.secure_striping);
    }
}
