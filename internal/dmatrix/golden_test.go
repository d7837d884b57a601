package dmatrix

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/tpg"
)

// matrixDigest hashes what a Matrix answers: the triplets, every row, the
// first-detection table, and the PatternsSimulated and TripletSims
// counts. GateEvals measures the simulator's effort, not the answer, and is
// left out.
func matrixDigest(m *Matrix) string {
	h := sha256.New()
	for _, t := range m.Triplets {
		fmt.Fprintf(h, "t %s %s %d\n", t.Delta.Hex(), t.Theta.Hex(), t.Cycles)
	}
	for _, r := range m.Rows {
		fmt.Fprintf(h, "r %s\n", r.Hex())
	}
	var b [4]byte
	for _, fd := range m.FirstDetection {
		for _, x := range fd {
			binary.LittleEndian.PutUint32(b[:], uint32(x))
			h.Write(b[:])
		}
	}
	fmt.Fprintf(h, "p %d s %d\n", m.PatternsSimulated, m.TripletSims)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenMatrices are the digests of every (circuit, generator, T) build
// TestGoldenMatrices makes. T up to 128 was recorded from the per-fault
// event-driven simulator with one triplet per 64-pattern block that
// preceded the stem kernel and sub-word packing; T = 192, 256, 257 and 320
// from the one-word stem kernel that preceded the four-word one.
var goldenMatrices = map[string]string{
	"c432/adder/T1":         "c77ac512939796baea65ace43dc679521a7e78114eb742774b324ecc82465e3a",
	"c432/adder/T5":         "a174457bf13520103ae4e083c6c67a52326314172a7c3b00eda605d0b2a02449",
	"c432/adder/T8":         "f0d60e6b12db564e8239a90efafe4197e1f1b86f3f8f76509aba8682a9c0b246",
	"c432/adder/T32":        "90a99add2a176b0e6cf1750f58986a15c1bbafecd97c4b267d93307802fdb0c1",
	"c432/adder/T33":        "c874d086e8bf89c0a4c46f57a9f2af40849d5fb32ab02b1a84c4494c9775b0f7",
	"c432/adder/T64":        "b9841a53a2f322f34394080983cd67768edd68a9e27008630f5dd19c9a77cc42",
	"c432/adder/T100":       "1b6846eab236b20c09a24b89618614397a3701f9bade0d4a6ff8f2062e1abc4f",
	"c432/adder/T128":       "39461e133128a77ad53b7cdb09c0be8452c135a62fa60603eb10cca0b4bbddb5",
	"c432/adder/T192":       "5341125025cb08e473048d13dc20ccc19060543df76d4917d9de5652fc4b8c8a",
	"c432/adder/T256":       "7ecea5f7f82f6a3a88233c3cbdca2062130d27892b9b0dc430f96ea1b6fe2677",
	"c432/adder/T257":       "fa42bc447e2baa18da604a8a0dbd3056e89941cae5050344110d13fa25fab6d1",
	"c432/adder/T320":       "cc3c5901bb5d877742bc10fd9276c34e413182d61228a3f536d77c9f90a1a103",
	"c432/multiplier/T1":    "ee637cb26ea1e35c8900adc6570fda401d673182b87753e7182005944e2a188f",
	"c432/multiplier/T5":    "4a611b088a1f276ff94520c9ba0297cc00550666c9db0a68fd711b9b15603744",
	"c432/multiplier/T8":    "4f1a812aba9fd9910bc50c5d29b41647bfcaf86674efc84d1abaaa11ff4d7dfe",
	"c432/multiplier/T32":   "eb9611b9eb3e8bb3b670576f569e4d9b2f1b7f2c2b71db14d84a4cc30460b990",
	"c432/multiplier/T33":   "bd2d5544824296922d813a4a3a3cbb677f4ecbc955231c828932c31f3670b695",
	"c432/multiplier/T64":   "6864b8ebe4422fdf0f298d3ace05c139a0b69eade0c275281a4489083ab08006",
	"c432/multiplier/T100":  "78c4f3160031dbb8e0706fbb9e5207531f10f860f74a113f1eb45bc047b6702c",
	"c432/multiplier/T128":  "7f0c1c54c21c3d9519dd46a75082e0c072e9e64baac73b89d6792d6bba056db0",
	"c432/multiplier/T192":  "c42d4032dc926cf354555b2dfd659a6737a4bf932724e0a33ffa5be6a69047f4",
	"c432/multiplier/T256":  "582b8f8df112f5e3ffe55541759dee735dc2866afa059e183d03cd93c1e98a38",
	"c432/multiplier/T257":  "174500a8d0636c24b81a028d362f8045052ba8e21ee37066b730d8829732fcd1",
	"c432/multiplier/T320":  "663e6745a9bd26330907ad4cbe889a147a29b9a9b21171f7469b69f1016c51ff",
	"c432/lfsr/T1":          "e74d8c14d2f01f7f201d76b48a5c6068236d6c02098d3a9860267c27ad9d38ef",
	"c432/lfsr/T5":          "bc87f4d957a0acc287859dd3561415167e0c9dd02467b9f220ae958991b0b827",
	"c432/lfsr/T8":          "c939d2218982b00749f3aba5190d60c16b9abaf1ef746cf01b18985b1fdefc92",
	"c432/lfsr/T32":         "dfc906b70094b7f4fa4b7ff690fc5af8dd22a7b1477b70194b2c368941621ee4",
	"c432/lfsr/T33":         "ef2dec45143d66f296f16d014be001827a5a0b89fc43c1d1919b542605fbae24",
	"c432/lfsr/T64":         "cc4fc597a35fb44aefff29fb7a23e266dc7f1eeec56712fff99493406505e7a0",
	"c432/lfsr/T100":        "3e4bbb6d669339b5a8ddd18263194926ac30a6b4f25103633a0fa9b0e88f703b",
	"c432/lfsr/T128":        "02d4b09f478583fdc3e3c23381a47e6f7fe1f49baa460adbdf39a7595f982ff4",
	"c432/lfsr/T192":        "c838b21a6eb7b426870f24dd95bf2899bebac24b31a2dee43784dfe4b355903e",
	"c432/lfsr/T256":        "1b64815a6dec1aa5daf718f026a68c0abf95132813738339d3284635cdea21bc",
	"c432/lfsr/T257":        "cedfbd36c176bb81c31a302f5efc1755a7703bbe896a118546e80deb71c4577f",
	"c432/lfsr/T320":        "7ee38899c35480a5821fbcdcd02168f0827c5baadd231dbb9dbad1c6ea7fb472",
	"c499/adder/T1":         "79cc124b5f5c51013716c4e65c8c78b22f20be331886fd1c6b557572f3c6d9d8",
	"c499/adder/T5":         "da50e5647a1b8b9236c8584cd5e2f2d333fa0a8173189624e5ebfe4a88a14e03",
	"c499/adder/T8":         "3a82de56a496c6e7674a1a91f8733a778a5769fe8fba5dbc0a73c88133662818",
	"c499/adder/T32":        "3593af40921338ec5876ff5a93f44e19bf58e1fed2da6e48a6a2179edb46c6c4",
	"c499/adder/T33":        "942b1289032301a37453e7c36fe34fe3c9e1d5d9f80e95210ab7773be5ddebb7",
	"c499/adder/T64":        "c1b05fb460ac4bdf71665ec4a36161b8c3db9700ec3add24012134044d75bb17",
	"c499/adder/T100":       "521f49ce0d6fdc8023c4990684af82037d19785ce0585beba948357f7044005f",
	"c499/adder/T128":       "072f067beffa77fe006b6f6377d13278f3bf6b1022388960c9727fab47458684",
	"c499/adder/T192":       "2d5bffe681a2c43c709834f528df5768721ac1e06f173c5a8e00df6c75fcaf83",
	"c499/adder/T256":       "81a8a6455a2e14d0dce0beee6e748e46a9af52aa11cac85846bc3ae5309165f3",
	"c499/adder/T257":       "239649c70163f0adbcb5d911585dd41c2ac85e589df6320af38e17083d4d7444",
	"c499/adder/T320":       "8af7b0172c6f165621cc46a5c9747e1dbdab60c9dc99f08873a164c2d8153055",
	"c499/multiplier/T1":    "def17f178595fb50ea4bb0e7aafe316b913a1d2178a707176c169b7665650542",
	"c499/multiplier/T5":    "eec5fbd9813bf8b04a393162cdee38984e0c9912190e23b3c2dea6821f895bc7",
	"c499/multiplier/T8":    "cd06272d11e7d8ceb20ab85bdd7cf65a3458f6acab00b3db97a7a2d7e4b8e02b",
	"c499/multiplier/T32":   "bcc77bf905067ed41594c4b63f24ca25b189bf7b4092bed0cf342e415a39ff37",
	"c499/multiplier/T33":   "d8eb421562191257bd41070e8b5d2b8538d86853c13230b94d5e50baf0598992",
	"c499/multiplier/T64":   "2f8710c1b87370662dcac03b2094058d1ae5e631ba8de308395372511d9984e9",
	"c499/multiplier/T100":  "dc1dcb54126f755c0973dcef382a82f0020df3fe1c1b43f5822dbf9961c2a184",
	"c499/multiplier/T128":  "65360f6b07fe5f2e298cd760c0873ae6aadbe132877dba63564eec094ff1c140",
	"c499/multiplier/T192":  "c5eefd3a64495635634abdf42438c619079586ddbfc32d70ba52cbf2677a5b3d",
	"c499/multiplier/T256":  "8e68471a3c1081a1c85662c9aded4c712b3dc90a03021f27959af88763f87dc0",
	"c499/multiplier/T257":  "cd0b67cefc52e99b2873a35e79bd8f6b01ec235f0711f90263387898a465a55a",
	"c499/multiplier/T320":  "5b77bb970401ee928e875d8e438865991193f84d413792ac1696528e019d806d",
	"c499/lfsr/T1":          "5d498e75b1abe16814c5dba7d33b0b364bb0e5a9476ef3897453b4c3808997f5",
	"c499/lfsr/T5":          "f63d2f1d7aa1d58dc82a65767928f89a5e6b681c90c2a733f7ef88749804a097",
	"c499/lfsr/T8":          "07e80203dd3aace5e1cee1dcd5a305ae054afec7b42b8d3744d884b77037324e",
	"c499/lfsr/T32":         "0f14c9c8186cf0b353f2ddeb5109d928bd055bad955b4b71ee6a9ea54676a2c8",
	"c499/lfsr/T33":         "d9f9e0e5a0af38597fb9f59a524dce91e5b053ae93799f1c8ccb1cdb0c73d803",
	"c499/lfsr/T64":         "56a531814592acd17b368837b97ccb72369c9df81639264b4bb56078c6d8cfa3",
	"c499/lfsr/T100":        "d060e665675776fd880ad06c6154c6a319680e8ad9f1876f736890a6eba75e39",
	"c499/lfsr/T128":        "dbba936f5a67c4474994394b6248b041166160dfe1624d21252c173aca97b4ad",
	"c499/lfsr/T192":        "e9728df3643cd484b25340c6c1a9efb4fcefbd3baaabd56f2ac89985621162f8",
	"c499/lfsr/T256":        "a63fc061888ed4b5bc87e0a604ba0f1ec86c14e0cd5194ec0e00867277936646",
	"c499/lfsr/T257":        "d8443903f2bd81a53c2afaaa8e4854f1fa45f68f3ba1fdc38fd1a048012fc024",
	"c499/lfsr/T320":        "ed82149074f41d57b015b57281281ddd7bf1ecaf47fe4fd8702cc01cd5328a57",
	"s420/adder/T1":         "5db6df08b31b3b0b61127e4eeb0471be433502be18ec380b5df9e017c54e38e3",
	"s420/adder/T5":         "8477ca5e8ee0671493893e26a6aaae9dfb8c5049c8251b20c87506a307d82c14",
	"s420/adder/T8":         "114281c994b04f9787e977f9069f7828e5d84abd920c0292e6a2205ba710855a",
	"s420/adder/T32":        "a04bded43ba43b816b0afbb6425f678e3f02f58d80de895f91060b26c89e16ba",
	"s420/adder/T33":        "fdbb426814b57d25471b5663ecbc1aef5f9459479d2ce052354e789f5f84d962",
	"s420/adder/T64":        "9b5df88812ce1a0a661c332443259fa7528c693d8f3585c65a8926205d952102",
	"s420/adder/T100":       "026f86a06afe4c6604782920aa85839a853a60dae616f2b95120cc33e27b78f3",
	"s420/adder/T128":       "1afce89ab6c24c8d717b5a5850f1f4bc77a3387e10a23b692aa0660cf0eda73c",
	"s420/adder/T192":       "09ab4afda0ebcc68aa90b3323b695d102c024be8a45e030a830c67c4abbcdcf2",
	"s420/adder/T256":       "8024e2d4bc6675d0d903254ee98f20dc45f262f1bd2cb6ecc6c63bfb62df0e9c",
	"s420/adder/T257":       "4d869043d8091e8037bf178889d1ba85d906fd805a659e284286d2ed1ede654a",
	"s420/adder/T320":       "cac0a725d4d8d96994d3302d3bddf6e4dfaf64a78af17034cb14c4b7878f69bf",
	"s420/multiplier/T1":    "d2e2864a76d912cb9c5dc19d389178ee642872008cc0cddae6c37d78b13a4f46",
	"s420/multiplier/T5":    "a7a99c76e69833953f2772a237ac3f8eefee7a1f1c4359354d25fe7a0e2163e0",
	"s420/multiplier/T8":    "68a0dd3ffe716124fea2c9f11600a63dc094be83d28cbdd70972b164225ff052",
	"s420/multiplier/T32":   "557b05b26b7e5d0e6e248d4f12897cd78c411063938c466798430478ed2bd36d",
	"s420/multiplier/T33":   "3ee31c949a1de269a9472fb2a98dd199d1f27990194ad0ae3bbd6ee6643ce708",
	"s420/multiplier/T64":   "a4be5cb87475ecf5924195b3f4ce845946305e297bd778b401bf691262588533",
	"s420/multiplier/T100":  "11519119ff38e4b96ae87086dbcd9055184f4349629fb77fabac2fe1de4ca46d",
	"s420/multiplier/T128":  "8efdc5cfb7c8eb3190907353eb611852a1787739e3a939c925d46eb04034f132",
	"s420/multiplier/T192":  "fea02c40f6bb391b1071eab95af56e5d56af886bf3738f9429b6cc45ce9c22bb",
	"s420/multiplier/T256":  "61368637e93a0b1f03e04ea003e31ea2f6c615b9aa227a7e25008b3fbb80eacd",
	"s420/multiplier/T257":  "d240161946d9256e62972af74a0120f122dcefad9342a01a5e1c7ec7a9862975",
	"s420/multiplier/T320":  "b568508527abc44d9930f1d73df429bd1c1807a4e17fef8c0c066df116422d5c",
	"s420/lfsr/T1":          "02513b5e2b91e0f5523e172aeac92ea714df90d086eb9c9108646735d6f85a77",
	"s420/lfsr/T5":          "05089b6236fa4cad4575d383f96e392a5585b81b491cd5d182f7e666909f6b04",
	"s420/lfsr/T8":          "cf9d424837fe96b11a3aa94a6525995757a8ecb01cdb014147a3feb7ba8be6c0",
	"s420/lfsr/T32":         "cebed2f15ec1365643ec9de81eb0a110dd4e835febd7711b546fe6046939f51b",
	"s420/lfsr/T33":         "4eae593d7dc43fa0c73f8ffdd5fd0ba10c9296be8de7987788efed3f4e17c4a8",
	"s420/lfsr/T64":         "10de7639d448fc8adc297989e31d498156a519a355a62860eac73764b3507870",
	"s420/lfsr/T100":        "9a837ca3466a90e332cccd1f54fb92e9a525fccf86ac54e677041bcf2ce86bd0",
	"s420/lfsr/T128":        "3e8f34a2ac67e80999c33eda6d750ddcc0b70e07b303b5118f11d6fd69710fd3",
	"s420/lfsr/T192":        "54fd6318b8dd5026674e490b69ec4a2f7bddb887cb92caa77694643fdacea040",
	"s420/lfsr/T256":        "7eced4a1a255503c3cf417bf3f475ab514c9ae479ee10ed343dee5f36b74e89e",
	"s420/lfsr/T257":        "0d8999e636bf71e2c52fe9af221919236c4ccd90a742fc2bd65ead98827822ab",
	"s420/lfsr/T320":        "2f25e06bc3b73b35d533e47d46768bfa69d8e59045c291237de0c2b5cddaf453",
	"s838/adder/T1":         "b3b1722af6ec27d6f268b13ef185412868c292d45dc4fdd1a1ed8b3c5b55a8e7",
	"s838/adder/T5":         "5d5beeca949078b70859964731fb8b86f307084c294ccd4f91999b942d22f784",
	"s838/adder/T8":         "00f58647a1ae33b586512063a7587e1d930fb8375034a8f304460b924e21361e",
	"s838/adder/T32":        "1b38512723ce6128b5522852dfe0f53767d2a80b38928d5277d09ec3930b8e60",
	"s838/adder/T33":        "36f839fb6dba07a63ad5d7bf74c7822fb636693678605662a07b13805ac790ac",
	"s838/adder/T64":        "b4c294149633c6cb985d367ec9f8b95664bde48f4f7048f11dde9cb802556b95",
	"s838/adder/T100":       "d16e117e82fc641c384639f28cb33925e9d81674df7ab1c026702235b8f2d69c",
	"s838/adder/T128":       "90df1c953e6516c9fb577444b9ae2a5e331f2f50819f1e423dd94f2da3e33557",
	"s838/adder/T192":       "ffffbdf1c33ae491eaf29f2d21494eff05a96dd203b5617909b96dda3a21bd33",
	"s838/adder/T256":       "350ca10f3f4dd111db7131de971f3b7ae30327318105c2f36d861f834fc1c521",
	"s838/adder/T257":       "163fc04793a5894034d0121ef8608c83768c88abdd9a73662909aa37fe706637",
	"s838/adder/T320":       "7330d5a0570ffb8f3ce80fb34b57be1d7ca9e4d2dc27bba8f6ad9c5fb389810e",
	"s838/multiplier/T1":    "857fcaf934179348a31555cd61d380371761f0c6e9077a41377fdc87865d259f",
	"s838/multiplier/T5":    "ebd5f3ec1f436c98ec8d0e8b8660959bc69840bfa013cc0fc8999a8142d64a27",
	"s838/multiplier/T8":    "1db3a1701daed2e1af01c4794a26ca6aaea82f30ba373fd76f163f8373d4e260",
	"s838/multiplier/T32":   "461173e89d3d9bc044ed8d9d18c7a4b47b1f18c61d493b256cb6f68d65adfa79",
	"s838/multiplier/T33":   "62f83fc470d4f88192f01115ae2576807fa135ba6d9c68a150f8ed30c1477358",
	"s838/multiplier/T64":   "37c113d500daa81d6a7132f7843174759922eb9cb9bd80c56e2fd57999fe4e92",
	"s838/multiplier/T100":  "be5a5180663cdba4cb217606acf9586e4161980e79c7271cdad65d0bf12ed241",
	"s838/multiplier/T128":  "5f0878070ad739bfe873ae31c8897690c9d0ad70b3136297829e499852f1cad0",
	"s838/multiplier/T192":  "46c74acf6c801d5c170818447ac0d5d226854fc5d8f83562dc32c7cc5c5d6a2a",
	"s838/multiplier/T256":  "7e5d37089ca261ed883f63522b51cb1c04d61e98aef2dd4f45aeb26d8288b99b",
	"s838/multiplier/T257":  "f9344c5ad0fdaf213b18976a0cb30695a457b5ccfeee162795764d9cb8191f93",
	"s838/multiplier/T320":  "3a454f2018d00bc11e07ae4f32e0ffbce552972b09fc4805611e2f74d04ea8dc",
	"s838/lfsr/T1":          "f22374e9ea322440bd6430fa1b20d49821e5a10b6977ad1554a8045bc9fc94f1",
	"s838/lfsr/T5":          "e8a9c3806c4aeb68ccf618c7c47a5775d69799ea4f128e74f8a6c9e06409971e",
	"s838/lfsr/T8":          "01b6c908322350970af02804730075ae94c233917e6f04139634fe08c6ccd75c",
	"s838/lfsr/T32":         "8a141896d90f9bc9f30edfade4d2b826a7ad3a5d2cbd46fa6cfac69cece2f15e",
	"s838/lfsr/T33":         "1a928d782b99f90702e4fa643332f469c6a5c59f40d5e6b0f58d72b21f34ae57",
	"s838/lfsr/T64":         "b0db58bc0c237ea03ce43100e9d1f8a46e8e98966ffc4f0546c7b108f2dc87a2",
	"s838/lfsr/T100":        "98592325b3688cfe76c45f81361c5909412ef537f3a9a8ce333370f6459270d3",
	"s838/lfsr/T128":        "beaf412c6ee044ec18939a9e3c6ac216906eaa975e228cbe16a72e4e34f304c1",
	"s838/lfsr/T192":        "dab65b54c07ced11b6f1be66f0e26d1719c6ee2cfd84ded936d9d8820f31d439",
	"s838/lfsr/T256":        "7ac5d113214f8ed3260dd815e3df515c648a9a1bdc281213ca9eff084e6bff92",
	"s838/lfsr/T257":        "bbad0e9da527f81b730f5b3369e768b54767536c843e1bdab8914ca60a59bd03",
	"s838/lfsr/T320":        "406f582ac3afa0985c145d198d766b932e4ca061b0f8e4fad65cf794c2884d6e",
	"s1238/adder/T1":        "1026b3c26149e064831ac05c29b099b223ecf550ca74fba754b2276bf0b31f34",
	"s1238/adder/T5":        "f4d6f38d1bfe563992719fef6ed8e42b10b2066862650647be6cc7e1c7ab8c36",
	"s1238/adder/T8":        "88de2d954b8bc1cfbd047e0a4d535d20a53c3bf4ba994f6d0b609061fe722fcc",
	"s1238/adder/T32":       "fb871fe3c76faa926485456705c8886fdd37f70118d1d2bc3b154a2be1d0fb65",
	"s1238/adder/T33":       "93d8540a595f08be5e3987bc7712c5f1e12740b7265938f16eb52a8f1057cc5b",
	"s1238/adder/T64":       "c68301578ea037ac0ee7926d58fdce8564f50bf3d2e0565a7988adf73bf001a3",
	"s1238/adder/T100":      "dc7abb75b822eb0a66d270eec3243dbd1b585c7178f3e06d9afceac2e5b076bf",
	"s1238/adder/T128":      "5b72727bfe249f31d644bb5bcf2dd18c3ff2a4863ff17c13dc56128dd15eabc9",
	"s1238/adder/T192":      "5a17d0b33262e6d853cd83e591cd19414c8cca6713549f65f87ad2dfcce146ff",
	"s1238/adder/T256":      "5a49c1ccb6529d7b164696957020bcc16098f124c5645c4380409ebdff2fc24d",
	"s1238/adder/T257":      "f7edf42293195621d89f09299e8a7ab1a8f4d4d35f46cdd7e33b8835d76b0628",
	"s1238/adder/T320":      "da22a1d2954a1f877ef29ddda480b4cb0a7f97bf61f75f19b550c2bd85a9347b",
	"s1238/multiplier/T1":   "bb6f49db3896d683f5444d0fa4b6ec86d1c30b4d81edbf7419c924d508246245",
	"s1238/multiplier/T5":   "2796451c4a792152db9542142a640da6bf0d0b0429ee17cb292dff69c45c1662",
	"s1238/multiplier/T8":   "5b2ae92f68a9d67018145ffa3b3b8e33178176592451abd01c348a75d247279c",
	"s1238/multiplier/T32":  "8d60e20a52108affd1df5a8f38083d751cae2a69939441f47ec0869ce5bed63c",
	"s1238/multiplier/T33":  "27f0b07bbb190331755ff663fad3595116e25d111f7db3c2c3b3b3f14ffc65e0",
	"s1238/multiplier/T64":  "c36211d04b9032f296a77f303c588549129352ce867fa39d4e5dbacc0dbebdd7",
	"s1238/multiplier/T100": "4d799f2d5e0672042b04210918b9e9fe1c222ec61e8b743237f2c897f5cab859",
	"s1238/multiplier/T128": "01cf91ab59b637f4dd375831ee9df01fe22ee9bb3cfea86f7b3405f98b1d3336",
	"s1238/multiplier/T192": "c799c7aa693404936407408d903a442e56ef4dd1ec5406500ca2b4878f7e2a25",
	"s1238/multiplier/T256": "12200e96661da8bd137705cce0bdfae88b8984ce5419a14f8fda5ef7de100c6d",
	"s1238/multiplier/T257": "35bddcd43eaf8f1ee23806130584450b5d56720d208dba8117b2ee4008dee7a8",
	"s1238/multiplier/T320": "a07eab047c37f888fd9b13a463b192b1119e69eb0d19f618a46087ce268f33aa",
	"s1238/lfsr/T1":         "13c34c001e5db725977ddf0f932c65761dbf4a6e070f3e40a1fe7094d002e9e7",
	"s1238/lfsr/T5":         "05cca36c27a35a30f1d76cea60c90edf59c2b898df97321edc7edb80ac4c7a5a",
	"s1238/lfsr/T8":         "e413d5940fbc12aeb2efc7097fa1acbf0b85a194f62c079d6d500e0e6d7a6ced",
	"s1238/lfsr/T32":        "10389d59b33b44c1958fa3803ff2db7d4aaeecfa0e31070c0395bb900e5dfb17",
	"s1238/lfsr/T33":        "b8853bc80b4b78782c7abe52d4527b72fe3e14a701a36e5ea345e8b7e272792a",
	"s1238/lfsr/T64":        "95b39e190b4528398e83c740658cd5ed4fb6ec4b8448260f9a6b267f99979b2b",
	"s1238/lfsr/T100":       "fed3b767f275d47b4d9485376118e4677e5cfca1998564d65e9b2132362261be",
	"s1238/lfsr/T128":       "8b84c488a09e6712ee650e06b5e6bf7e319bd9c32e558c540323c22ac3752de2",
	"s1238/lfsr/T192":       "4d0dbac0b0d40f858bf9aa0b6154902052f43705474f1ec9a3bb5a42a912e57f",
	"s1238/lfsr/T256":       "8c225e596d7aa36a5cf470f31be2bb13e8fd4b1d151ec9481902c2cad4d5c4ab",
	"s1238/lfsr/T257":       "11c5988ba7fd144d8835ce7bc68c2d41db7ed3e341ccd8b32c53dd9093873de3",
	"s1238/lfsr/T320":       "54f0ced17f9e1eb93443d6942c91799a846b853d991a60048f037178f391fc2b",
}

// TestGoldenMatrices pins the Detection Matrix of bundled circuits for
// three generators and evolution lengths on both sides of the packing
// boundaries (T = 32/33 for two triplets per block, 64 for one full block,
// 100 and 128 for several blocks per triplet, 192 to 320 for three to
// five blocks per triplet, ending on a block boundary or one pattern past
// it), at every degree of parallelism.
func TestGoldenMatrices(t *testing.T) {
	for _, name := range []string{"c432", "c499", "s420", "s838", "s1238"} {
		c, err := bench.ScanView(name)
		if err != nil {
			t.Fatal(err)
		}
		all, _, err := fault.List(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := atpg.Run(c, all, atpg.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var faults []fault.Fault
		for _, fi := range res.DetectedFaults() {
			faults = append(faults, all[fi])
		}
		for _, kind := range []string{"adder", "multiplier", "lfsr"} {
			gen, err := tpg.ByName(kind, len(c.Inputs))
			if err != nil {
				t.Fatal(err)
			}
			for _, cycles := range []int{1, 5, 8, 32, 33, 64, 100, 128, 192, 256, 257, 320} {
				key := fmt.Sprintf("%s/%s/T%d", name, kind, cycles)
				for _, j := range []struct {
					name string
					j    int
				}{{"j1", 1}, {"j2", 2}, {"jmax", 0}} {
					t.Run(key+"/"+j.name, func(t *testing.T) {
						m, err := Build(c, faults, res.Patterns, gen, Options{
							Cycles: cycles, Seed: 5, RecordFirstDetection: true, Parallelism: j.j,
						})
						if err != nil {
							t.Fatal(err)
						}
						if got := matrixDigest(m); got != goldenMatrices[key] {
							t.Errorf("digest %s, want %s (%d rows, %d patterns simulated)",
								got, goldenMatrices[key], len(m.Rows), m.PatternsSimulated)
						}
					})
				}
			}
		}
	}
}
