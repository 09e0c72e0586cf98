// Package platform implements the umbrella "SAP HANA data platform" of §2:
// the added-Value services above the individual engines —
//
//   - an integrated repository of application artifacts with atomic
//     deployment and dev→test→prod transport ("application code in
//     combination with database schema and pre-loaded content can be
//     atomically deployed or transported from development via test to a
//     production system");
//   - single control of access rights with credentials shared across
//     components ("a query in the SAP HANA event stream processor may run
//     with the same credentials as a corresponding query in the SAP HANA
//     core database system");
//   - synchronized backup and recovery across the in-memory engine and the
//     extended store ("backup and recovery … is synchronized providing a
//     consistent recovery mechanism").
package platform

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hana/internal/engine"
	"hana/internal/esp"
	"hana/internal/value"
)

// Tier is one system in the transport landscape.
type Tier string

// Standard landscape tiers.
const (
	TierDev  Tier = "DEV"
	TierTest Tier = "TEST"
	TierProd Tier = "PROD"
)

// ArtifactKind classifies repository artifacts.
type ArtifactKind string

// Artifact kinds.
const (
	ArtifactDDL    ArtifactKind = "ddl"    // SQL schema objects
	ArtifactCCL    ArtifactKind = "ccl"    // ESP continuous queries
	ArtifactScript ArtifactKind = "script" // SQL content/seed scripts
	ArtifactMRJob  ArtifactKind = "mr-job" // map-reduce driver references
)

// Artifact is one versioned development object.
type Artifact struct {
	Name    string
	Kind    ArtifactKind
	Content string // SQL/CCL text, or driver class for MR jobs
	Version int
}

// System is one tier's runtime: a core engine and an ESP project sharing
// the platform credentials.
type System struct {
	Tier   Tier
	Engine *engine.Engine
	ESP    *esp.Project

	deployed    map[string]int // artifact name → deployed version
	deployOrder []string       // first-deployment order, preserved by transport
}

// Platform is the single point of control.
type Platform struct {
	mu      sync.Mutex
	systems map[Tier]*System
	repo    map[string]*Artifact
	users   *Credentials
}

// New creates a platform with the given tiers, each backed by its own
// engine instance (extended storage under dir/<tier>).
func New(baseDir string, tiers ...Tier) *Platform {
	if len(tiers) == 0 {
		tiers = []Tier{TierDev, TierTest, TierProd}
	}
	p := &Platform{
		systems: map[Tier]*System{},
		repo:    map[string]*Artifact{},
		users:   NewCredentials(),
	}
	for _, t := range tiers {
		p.systems[t] = &System{
			Tier:     t,
			Engine:   engine.New(engine.Config{ExtendedStorageDir: fmt.Sprintf("%s/%s/extstore", baseDir, strings.ToLower(string(t)))}),
			ESP:      esp.NewProject(),
			deployed: map[string]int{},
		}
	}
	return p
}

// System returns a tier's runtime.
func (p *Platform) System(t Tier) (*System, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.systems[t]
	if !ok {
		return nil, fmt.Errorf("platform: tier %s not configured", t)
	}
	return s, nil
}

// --- artifact repository and lifecycle management ---

// SaveArtifact stores (or versions up) an artifact in the repository.
func (p *Platform) SaveArtifact(name string, kind ArtifactKind, content string) *Artifact {
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.repo[strings.ToUpper(name)]
	if !ok {
		a = &Artifact{Name: name, Kind: kind}
		p.repo[strings.ToUpper(name)] = a
	}
	a.Kind = kind
	a.Content = content
	a.Version++
	return a
}

// Artifact fetches a repository entry.
func (p *Platform) Artifact(name string) (*Artifact, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.repo[strings.ToUpper(name)]
	return a, ok
}

// Artifacts lists repository entries sorted by name.
func (p *Platform) Artifacts() []*Artifact {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Artifact, 0, len(p.repo))
	for _, a := range p.repo {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DeployCtx applies a set of artifacts to a tier atomically: if any
// artifact fails, previously-applied DDL of this deployment is rolled back
// by dropping the objects it created (compensation), and the deployment
// records are not updated. ctx threads through every artifact's DDL
// execution, so a canceled deployment stops between statements and its
// compensation still runs.
func (p *Platform) DeployCtx(ctx context.Context, tier Tier, names ...string) error {
	sys, err := p.System(tier)
	if err != nil {
		return err
	}
	p.mu.Lock()
	arts := make([]*Artifact, 0, len(names))
	for _, n := range names {
		a, ok := p.repo[strings.ToUpper(n)]
		if !ok {
			p.mu.Unlock()
			return fmt.Errorf("platform: artifact %s not in repository", n)
		}
		arts = append(arts, a)
	}
	p.mu.Unlock()

	var created []string // table names created, for compensation
	for _, a := range arts {
		if err := p.applyArtifact(ctx, sys, a, &created); err != nil {
			for i := len(created) - 1; i >= 0; i-- {
				// Compensation must run even when the deploy failed because
				// ctx was canceled — a half-deployed tier is worse than a
				// slow rollback.
				//lint:ignore ctxflow compensation DROPs must survive a canceled deploy ctx
				_, _ = sys.Engine.ExecuteContext(context.Background(), "DROP TABLE IF EXISTS "+created[i])
			}
			return fmt.Errorf("platform: deploying %s to %s: %w", a.Name, tier, err)
		}
	}
	p.mu.Lock()
	for _, a := range arts {
		key := strings.ToUpper(a.Name)
		if _, seen := sys.deployed[key]; !seen {
			sys.deployOrder = append(sys.deployOrder, key)
		}
		sys.deployed[key] = a.Version
	}
	p.mu.Unlock()
	return nil
}

func (p *Platform) applyArtifact(ctx context.Context, sys *System, a *Artifact, created *[]string) error {
	switch a.Kind {
	case ArtifactDDL, ArtifactScript:
		// Track CREATE TABLE statements for compensation.
		for _, stmtText := range strings.Split(a.Content, ";") {
			trimmed := strings.TrimSpace(stmtText)
			if trimmed == "" {
				continue
			}
			if _, err := sys.Engine.ExecuteContext(ctx, trimmed); err != nil {
				return err
			}
			upper := strings.ToUpper(trimmed)
			if strings.HasPrefix(upper, "CREATE TABLE") || strings.HasPrefix(upper, "CREATE COLUMN TABLE") ||
				strings.HasPrefix(upper, "CREATE ROW TABLE") || strings.HasPrefix(upper, "CREATE FLEXIBLE TABLE") {
				fields := strings.Fields(trimmed)
				for i, f := range fields {
					if strings.EqualFold(f, "TABLE") && i+1 < len(fields) {
						name := strings.TrimFunc(fields[i+1], func(r rune) bool { return r == '(' || r == '"' })
						*created = append(*created, name)
						break
					}
				}
			}
		}
		return nil
	case ArtifactCCL:
		// Content: "WINDOW <name> AS <select … keep …>" lines.
		for _, line := range strings.Split(a.Content, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || !strings.EqualFold(fields[0], "WINDOW") || !strings.EqualFold(fields[2], "AS") {
				return fmt.Errorf("bad CCL artifact line %q (want WINDOW <name> AS <select>)", line)
			}
			if _, err := sys.ESP.CreateWindow(fields[1], fields[3]); err != nil {
				return err
			}
		}
		return nil
	case ArtifactMRJob:
		// MR job artifacts are references; nothing to instantiate here —
		// the virtual function DDL that uses them is a DDL artifact.
		return nil
	}
	return fmt.Errorf("unknown artifact kind %s", a.Kind)
}

// DeployedVersion reports the artifact version running on a tier (0 = not
// deployed).
func (p *Platform) DeployedVersion(tier Tier, name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	sys, ok := p.systems[tier]
	if !ok {
		return 0
	}
	return sys.deployed[strings.ToUpper(name)]
}

// TransportCtx promotes every artifact deployed on from (at its deployed
// version) to the to tier — "transported from development via test to a
// production system".
func (p *Platform) TransportCtx(ctx context.Context, from, to Tier) error {
	p.mu.Lock()
	src, ok := p.systems[from]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("platform: tier %s not configured", from)
	}
	// Replay in original deployment order so dependencies (schema before
	// content) hold on the target tier.
	names := append([]string{}, src.deployOrder...)
	p.mu.Unlock()
	if len(names) == 0 {
		return fmt.Errorf("platform: nothing deployed on %s", from)
	}
	return p.DeployCtx(ctx, to, names...)
}

// --- single control of access rights ---

// Role grants component access.
type Role string

// Roles.
const (
	RoleAdmin    Role = "admin"
	RoleAnalyst  Role = "analyst"  // query engine + read ESP windows
	RoleIngestor Role = "ingestor" // publish to ESP streams
)

// Credentials is the platform-wide user registry: one credential works
// against every component.
type Credentials struct {
	mu    sync.Mutex
	users map[string]credEntry
}

type credEntry struct {
	password string
	roles    map[Role]bool
}

// NewCredentials creates an empty registry.
func NewCredentials() *Credentials {
	return &Credentials{users: map[string]credEntry{}}
}

// Users exposes the platform registry.
func (p *Platform) Users() *Credentials { return p.users }

// AddUser registers a user with roles.
func (c *Credentials) AddUser(user, password string, roles ...Role) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := credEntry{password: password, roles: map[Role]bool{}}
	for _, r := range roles {
		e.roles[r] = true
	}
	c.users[strings.ToLower(user)] = e
}

// Authenticate verifies a credential.
func (c *Credentials) Authenticate(user, password string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.users[strings.ToLower(user)]
	return ok && e.password == password
}

// Authorize checks component access: "engine.query", "esp.publish",
// "esp.query", "platform.admin".
func (c *Credentials) Authorize(user string, action string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.users[strings.ToLower(user)]
	if !ok {
		return false
	}
	if e.roles[RoleAdmin] {
		return true
	}
	switch action {
	case "engine.query", "esp.query":
		return e.roles[RoleAnalyst]
	case "esp.publish":
		return e.roles[RoleIngestor]
	}
	return false
}

// Session is an authenticated handle running with the same credentials
// against every component.
type Session struct {
	user string
	sys  *System
	p    *Platform
}

// Login opens a session on a tier.
func (p *Platform) Login(tier Tier, user, password string) (*Session, error) {
	if !p.users.Authenticate(user, password) {
		return nil, fmt.Errorf("platform: authentication failed for %s", user)
	}
	sys, err := p.System(tier)
	if err != nil {
		return nil, err
	}
	return &Session{user: user, sys: sys, p: p}, nil
}

// QueryCtx runs SQL on the tier's engine under the session's credentials
// and the caller's context.
func (s *Session) QueryCtx(ctx context.Context, sql string) (*engine.Result, error) {
	if !s.p.users.Authorize(s.user, "engine.query") {
		return nil, fmt.Errorf("platform: user %s is not authorized for engine.query", s.user)
	}
	return s.sys.Engine.ExecuteContext(ctx, sql)
}

// PublishEvent pushes an event into the tier's ESP under the same
// credentials.
func (s *Session) PublishEvent(stream string, row value.Row, ts time.Time) error {
	if !s.p.users.Authorize(s.user, "esp.publish") {
		return fmt.Errorf("platform: user %s is not authorized for esp.publish", s.user)
	}
	return s.sys.ESP.Publish(stream, row, ts)
}

// WindowRows reads an ESP window under the same credentials (the paper's
// example: "a query in the … ESP may run with the same credentials as a
// corresponding query in the … core database system").
func (s *Session) WindowRows(window string, now time.Time) (*value.Rows, error) {
	if !s.p.users.Authorize(s.user, "esp.query") {
		return nil, fmt.Errorf("platform: user %s is not authorized for esp.query", s.user)
	}
	w, ok := s.sys.ESP.Window(window)
	if !ok {
		return nil, fmt.Errorf("platform: window %s not found", window)
	}
	return w.Rows(now)
}
