package workload

import (
	"fmt"

	"repro/internal/hashmap"
	"repro/internal/vm"
)

// The paper's conclusion argues that the behavioral characteristics found
// in WordPress, Drupal, and MediaWiki "exist across a wide-range of other
// PHP applications such as Laravel, Symfony, Yii, Phalcon etc. and hence
// will all gain execution efficiency when using our proposed
// accelerators". These two framework-flavored workloads exercise that
// claim: different activity mixes (Laravel: Blade-style templating with
// heavy escaping; Symfony: routing/container-heavy hash traffic) built
// from the same request skeleton.

// NewLaravel builds a Laravel-like workload: Blade template rendering
// with pervasive `{{ }}` auto-escaping (string heavy) and middleware
// symbol-table traffic.
func NewLaravel(seed int64) App {
	return &appBase{
		p: params{
			name:         "laravel",
			prefix:       "blade_",
			items:        5,
			attrsPerItem: 5,
			comments:     3,
			optionReads:  45,
			symtabOps:    14,
			urlScans:     8,
			metaReads:    30,
			churn:        55,
			stringOps:    22,
			excerptLen:   160,
			chain:        fig11Chain()[:3],
			otherUops:    165000,
			jitUops:      44000,
		},
		corpus: NewCorpus(seed+100, 56, 700),
		cat:    newCatalog("blade_", 160),
	}
}

// NewSymfony builds a Symfony-like workload: router and service-container
// lookups dominate (hash heavy), with Twig-style escaping on smaller
// bodies.
func NewSymfony(seed int64) App {
	return &symfonyApp{appBase{
		p: params{
			name:         "symfony",
			prefix:       "sf_",
			items:        4,
			attrsPerItem: 3,
			comments:     2,
			optionReads:  70,
			symtabOps:    18,
			urlScans:     10,
			metaReads:    55,
			churn:        48,
			stringOps:    8,
			excerptLen:   120,
			chain:        fig11Chain()[:2],
			otherUops:    190000,
			jitUops:      50000,
		},
		corpus: NewCorpus(seed+200, 56, 420),
		cat:    newCatalog("sf_", 180),
	}}
}

// symfonyApp adds container/service resolution hash traffic.
type symfonyApp struct {
	appBase
}

// ServePage renders the Symfony page with the given index.
func (s *symfonyApp) ServePage(rt *vm.Runtime, page int) []byte {
	out := s.appBase.ServePage(rt, page)
	// Service container: dynamic-key service id lookups against the
	// persistent cache (the container is built once per worker).
	for i := 0; i < 25; i++ {
		k := hashmap.StrKey(fmt.Sprintf("meta_%s_%d", pick(templateVars, page+i), (page+i)%48))
		rt.AGet("sf_container_get", s.dbCache, k, true)
	}
	return out
}
